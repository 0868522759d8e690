(** Divisible load scheduling on multi-level (star-of-stars) platforms:
    the tree networks of the classical DLT literature ([9]), built on
    {!Platform.Topology}.

    Strategy: each gateway is summarized by its steady-state-equivalent
    worker to compute shares with the one-port closed form, and the
    dispatch is store-and-forward — a gateway starts redistributing to
    its children once its whole share has arrived.  The resulting
    makespan is exact for this strategy (computed recursively), though
    the strategy itself is a heuristic: cut-through forwarding could
    pipeline levels. *)

type leaf_share = {
  path : int list;  (** child indices from the root, e.g. [\[1; 0\]] *)
  share : float;
  finish : float;  (** when this leaf completes its computation *)
}

type result = {
  leaves : leaf_share list;  (** depth-first order *)
  makespan : float;
}

val schedule : Platform.Topology.node list -> total:float -> result
(** Raises [Invalid_argument] on an empty platform or non-positive
    total. *)

val flat_makespan : Platform.Topology.node list -> total:float -> float
(** One-port makespan of the fully aggregated (single-level) star,
    latencies and participant selection included
    ({!Nonlinear.equal_finish_allocation} with a linear cost).
    Note this is a {e summary}, not a bound: the steady-state
    equivalent worker caps a cluster's compute rate by its uplink
    bandwidth, which for a finite batch double-counts the uplink (the
    transfer is already paid explicitly) — so the real tree schedule
    can finish {e earlier} than the flat summary when a cluster's
    internal fabric outruns its uplink.  The test suite demonstrates
    both directions. *)
