(** One worker of the star platform of Section 1.2.

    Following the paper's notation, the processing speed is
    [s_i = 1/w_i] ([w_i] = time per unit of computation) and the incoming
    bandwidth is [1/c_i] ([c_i] = time per unit of data).  An optional
    per-message latency extends the model for the multi-round studies. *)

type t = {
  id : int;
  speed : float;  (** s_i > 0, work units per time unit *)
  bandwidth : float;  (** 1/c_i > 0, data units per time unit *)
  latency : float;  (** per-message start-up cost, >= 0 *)
}

val make : ?bandwidth:float -> ?latency:float -> id:int -> speed:float -> unit -> t
(** Defaults: [bandwidth = 1.], [latency = 0.].  Raises
    [Invalid_argument] on non-positive speed or bandwidth, or negative
    latency. *)

val w : t -> float
(** [w p] is [1 /. p.speed]: seconds per unit of work. *)

val c : t -> float
(** [c p] is [1 /. p.bandwidth]: seconds per unit of data. *)

val compute_time : t -> work:float -> float
(** Time to execute [work] units of computation. *)

val transfer_time : t -> data:float -> float
(** Time to receive [data] units, including latency when [data > 0]. *)

val pp : Format.formatter -> t -> unit
