(** Map-task descriptors.

    A task reads a set of identified data blocks (so the runtime can
    recognize when a worker already holds a block — the affinity
    information of the paper's conclusion) and performs a fixed amount
    of computation. *)

type t = {
  id : int;
  data_ids : int array;  (** identities of the input blocks *)
  cost : float;  (** work units *)
}

val make : id:int -> data_ids:int array -> cost:float -> t
(** Raises [Invalid_argument] on negative cost. *)
