(** Experiment E4 (extension): execution time, not just volume.

    Sweeps the network speed (uniform link bandwidth, in domain cells
    per time unit) and reports the makespan of the Heterogeneous Blocks
    layout against demand-driven [Commhom/k], normalized by the
    compute-only bound [n²/Σs].  With a fast network both are
    compute-bound and close; as links slow down the redundant transfers
    of the homogeneous strategy push its makespan away — the time-domain
    restatement of the paper's volume argument, including where the gap
    opens. *)

type row = {
  bandwidth : float;
  het_ratio : float;  (** makespan / compute bound, mean over trials *)
  hom_ratio : float;
  het_comm_share : float;  (** het comm makespan / het makespan *)
}

val run :
  ?p:int ->
  ?n:float ->
  ?bandwidths:float list ->
  ?trials:int ->
  ?seed:int ->
  ?domains:int ->
  Platform.Profiles.t ->
  row list
(** Trials run on the shared domain pool with pre-split per-trial RNGs;
    output is identical at any [domains]. *)

val table : profile:string -> row list -> Report.t
(** [profile] names the speed profile in the title. *)
