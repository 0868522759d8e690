(** Robustness experiment: how much of the demand-driven scheduler's
    makespan survives injected faults — the fault-tolerance cost on top
    of the paper's communication trade-off.

    Sweeps crash rate × straggler jitter sigma × speculation policy on a
    homogeneous star.  Each cell first runs fault-free to calibrate the
    horizon and the baseline makespan, then replays the same workload
    under a seeded {!Fault.Plan} (crashes with recovery plus per-link
    fetch failures) and reports the makespan degradation factor and the
    wasted work. *)

type row = {
  crash_rate : float;
  sigma : float;  (** log-normal jitter sigma *)
  policy : string;  (** ["off"], ["at-idle"] or ["late"] *)
  makespan : float;  (** mean over trials, with faults *)
  degradation : float;  (** mean faulted / mean fault-free makespan *)
  wasted : float;  (** mean wasted work units per trial *)
  retries : float;  (** mean fetch retries + task re-enqueues *)
  crashes : float;  (** mean injected crashes survived *)
  unfinished : float;  (** mean tasks that never completed (0 expected) *)
}

val run :
  ?tasks:int ->
  ?p:int ->
  ?crash_rates:float list ->
  ?sigmas:float list ->
  ?fetch_failure:float ->
  ?trials:int ->
  ?seed:int ->
  ?domains:int ->
  unit ->
  row list
(** Trials run on the shared domain pool with pre-split per-trial RNGs;
    output is identical at any [domains]. *)

val table : row list -> Report.t
