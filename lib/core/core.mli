(** Non-Linear Divisible Loads — public façade.

    One-stop module assembling the reproduction of Beaumont,
    Larchevêque & Marchal, {e Non-Linear Divisible Loads: There is No
    Free Lunch} (IPDPS 2013).  The aliases below are the supported
    entry points; the underlying libraries can also be used directly. *)

val version : string

(* Randomness and statistics. *)
module Rng = Numerics.Rng
module Distributions = Numerics.Distributions
module Stats = Numerics.Stats
module Parallel = Numerics.Parallel
module Pool = Exec.Pool
module Fbuf = Kernels.Fbuf
module Scatter = Kernels.Scatter
module Seg_sort = Kernels.Seg_sort

(* Platforms (paper §1.2). *)
module Processor = Platform.Processor
module Star = Platform.Star
module Profiles = Platform.Profiles
module Platform_metrics = Platform.Metrics
module Topology = Platform.Topology

(* Discrete-event substrate. *)
module Engine = Des.Engine
module Trace = Des.Trace
module Process = Des.Process
module Fluid = Des.Fluid

(* Divisible load theory (§2, §3). *)
module Cost_model = Dlt.Cost_model
module Linear_dlt = Dlt.Linear
module Nonlinear_dlt = Dlt.Nonlinear
module Dlt_schedule = Dlt.Schedule
module Multi_round = Dlt.Multi_round
module Fraction = Dlt.Fraction
module Dlt_bounds = Dlt.Bounds
module Affine_dlt = Dlt.Affine
module Dlt_ordering = Dlt.Ordering
module Return_messages = Dlt.Return_messages
module Steady_state = Dlt.Steady_state
module Dlt_simulate = Dlt.Simulate
module Tree_dlt = Dlt.Tree

(* Data partitioning (§4.1). *)
module Rect = Partition.Rect
module Layout = Partition.Layout
module Column_partition = Partition.Column_partition
module Comm_lower_bound = Partition.Lower_bound
module Block_hom = Partition.Block_hom
module Strategies = Partition.Strategies
module Bisection = Partition.Bisection
module Timed_strategies = Partition.Timed

(* Sorting as an almost-divisible load (§3). *)
module Sample_sort = Sortlib.Sample_sort
module Hetero_sort = Sortlib.Hetero_sort
module Sort_model = Sortlib.Parallel_model
module Concentration = Sortlib.Concentration
module Histogram_sort = Sortlib.Histogram_sort
module Multicore_sort = Sortlib.Multicore
module Psrs = Sortlib.Psrs
module Merge = Sortlib.Merge

(* Linear algebra workloads (§4.2). *)
module Matrix = Linalg.Matrix
module Zone = Linalg.Zone
module Outer_product = Linalg.Outer_product
module Matmul = Linalg.Matmul
module Block_cyclic = Linalg.Block_cyclic
module Summa = Linalg.Summa
module C25d = Linalg.C25d
module Poly = Linalg.Poly
module Cannon = Linalg.Cannon
module Strassen = Linalg.Strassen
module Parallel_matmul = Linalg.Parallel_matmul
module Lu = Linalg.Lu
module Cholesky = Linalg.Cholesky

(* Application workloads (§1.1). *)
module Image = Workloads.Image
module Database = Workloads.Database
module Stream = Workloads.Stream
module Montecarlo = Workloads.Montecarlo

(* MapReduce runtime (§1.1, §4, conclusion). *)
module Mr_task = Mapreduce.Task
module Mr_scheduler = Mapreduce.Scheduler
module Mr_engine = Mapreduce.Engine
module Mr_jobs = Mapreduce.Jobs
module Mr_shuffle = Mapreduce.Shuffle
module Mr_timeline = Mapreduce.Timeline
module Mr_pipeline = Mapreduce.Pipeline

val partition_for_speeds : float array -> Partition.Layout.t
(** [partition_for_speeds speeds] is the communication-minimizing
    Heterogeneous Blocks layout (PERI-SUM column partition) for workers
    of the given positive speeds, zone areas proportional to speeds. *)

val communication_ratios :
  ?n:float -> ?target_imbalance:float -> Platform.Star.t -> Partition.Strategies.ratios
(** [communication_ratios star] compares the three §4.3 strategies on
    [star]; see {!Partition.Strategies.evaluate}. *)

val no_free_lunch : alpha:float -> p:int -> float
(** [no_free_lunch ~alpha ~p] is the §2 headline number: the fraction of
    an [N^alpha] workload that one divisible-load round over [p]
    identical workers leaves undone — [1 - p^(1-alpha)]. *)
