(** Experiment E2 (paper Section 3): sorting as an almost-divisible
    load.

    For each [(N, p)]: run a real sample sort, measure the divisible
    fraction of the work (phase 3 share) against the closed form
    [1 - log p / log N], the max-bucket concentration against the
    Theorem B.4 envelope, and the modelled parallel speedup.  A second
    table exercises the heterogeneous splitters of Section 3.2. *)

type row = {
  n : int;
  p : int;
  s : int;  (** oversampling ratio used *)
  predicted_gap : float;  (** [log p / log N] *)
  measured_gap : float;  (** 1 - measured divisible fraction *)
  max_bucket_ratio : float;
  envelope : float;
  speedup : float;
  ideal_speedup : float;  (** [Σ s_i / master speed], = p here *)
}

type hetero_row = {
  p : int;
  n : int;
  imbalance : float;  (** (tmax-tmin)/tmin over local sort times *)
  naive_imbalance : float;  (** same with equal-size buckets *)
}

val run :
  ?sizes:int list -> ?processor_counts:int list -> ?seed:int -> unit -> row list

val run_hetero :
  ?sizes:int list -> ?processor_counts:int list -> ?trials:int -> ?seed:int -> unit ->
  hetero_row list

val table : row list -> Report.t
val hetero_table : hetero_row list -> Report.t
