(** Reproduction of Figures 4(a), 4(b), 4(c): the communication ratios
    of the three distribution strategies against the lower bound, as the
    platform grows, for the paper's three speed profiles; each point
    averages [trials] random platforms (the paper uses 100) and reports
    the standard deviation as error bars. *)

type point = {
  p : int;
  het : Numerics.Stats.summary;
  hom : Numerics.Stats.summary;
  hom_over_k : Numerics.Stats.summary;
  mean_k : float;  (** average subdivision reached by Commhom/k *)
}

val default_processor_counts : int list
(** The paper's x-axis: 10, 20, 40, 60, 80, 100. *)

val sweep :
  ?processor_counts:int list ->
  ?trials:int ->
  ?seed:int ->
  ?domains:int ->
  Platform.Profiles.t ->
  point list
(** [trials] defaults to 100 (the paper), [seed] to a fixed constant.
    Trials run on up to [domains] domains of the shared pool (default
    {!Numerics.Parallel.default_domains}); per-trial RNGs are pre-split
    from the seed generator in sequential order, so the output is
    identical at any domain count. *)

val table : title:string -> point list -> Report.t
(** One row per point: mean and standard deviation of each strategy's
    ratio to the lower bound, the 95% confidence interval of
    [Commhet]'s mean (NaN bounds below two trials), and the mean
    subdivision. *)

val chart : point list -> string
(** ASCII chart of the three mean series against [p]. *)
