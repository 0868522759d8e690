(** Concrete single-round schedules: per-worker communication and
    computation intervals.  Schedules are produced by the allocation
    solvers and validated against the communication model, which lets
    the tests cross-check closed forms against an executable artefact. *)

type entry = {
  proc : Platform.Processor.t;
  data : float;  (** data units received *)
  comm_start : float;
  comm_end : float;
  compute_start : float;
  compute_end : float;
}

type t = { entries : entry array; makespan : float }

type comm_model =
  | Parallel  (** all master→worker links usable simultaneously (§1.2) *)
  | One_port  (** the master serializes its outgoing communications *)

val check_permutation : int -> int array -> unit
(** [check_permutation p order] raises [Invalid_argument] unless
    [order] is a permutation of [0 .. p-1]. *)

val of_allocation :
  ?order:int array ->
  comm_model -> Platform.Star.t -> Cost_model.t -> allocation:float array -> t
(** Build the earliest schedule realizing [allocation] (data units for
    each worker, in platform order).  Under [One_port] the master sends
    in [order] (a permutation of platform indices; platform order by
    default — note that the *optimal* one-port order is by decreasing
    bandwidth, see {!Linear.one_port_order}).  Workers with 0 data get
    empty intervals.  Raises [Invalid_argument] if the allocation
    length differs from the platform size, contains negative amounts,
    or [order] is not a permutation.  [entries] stay in platform
    order. *)

val validate : comm_model -> Cost_model.t -> t -> (unit, string) result
(** Checks interval consistency: transfer and compute durations match
    the platform parameters, computation starts after reception, and
    under [One_port] communication intervals do not overlap. *)

val makespan : t -> float
val pp : Format.formatter -> t -> unit
