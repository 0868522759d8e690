(** Stable cache keys for the serve daemon.

    Two requests that must produce byte-identical responses must map to
    the same key.  The fingerprint therefore normalizes the request the
    same way evaluation does: the platform is {e materialized} (profile
    draws expanded, speeds sorted by the star's non-decreasing-speed
    convention) and every float goes through the round-trippable
    decimal rendering {!Obs.Json.float_compact}, so [0.1 +. 0.2] and
    [0.30000000000000004] only collide when they are the same double.
    Permuted-but-equal speed vectors share a key; a profile request and
    the explicit speed vector it draws share a key too. *)

val of_request : Request.t -> string
(** The cache key.  Materializes the platform via {!Request.star} —
    call only on validated requests.  Validation rejects every
    non-finite float, which is what keeps ["null"] (the rendering of
    NaN and infinities) out of keys. *)
