(** Stable cache keys for the serve daemon.

    Two requests that must produce byte-identical responses must map to
    the same key.  The fingerprint therefore normalizes the request the
    same way evaluation does: the platform is {e materialized} (profile
    draws expanded, explicit speeds sorted into non-decreasing order,
    as the star orders its workers).  Permuted-but-equal speed vectors
    share a key; a profile request and the explicit speed vector it
    draws share a key too.

    Every float goes into the key as its 8 raw bytes
    ([Int64.bits_of_float]), not as decimal text.  That keeps the
    equivalence classes of the decimal key ({!Obs.Json.float_compact}
    is injective on finite doubles, and so are the raw bits; both keep
    [-0.] and [0.] apart), so [0.1 +. 0.2] and [0.30000000000000004]
    collide only because they are the same double.  The key is
    internal: it is neither on the wire nor in the daemon's stats. *)

val of_request : Request.t -> string
(** The cache key.  Call only on validated requests: validation rejects
    the non-finite floats and non-positive speeds the key's ordering
    assumes.  Draws the star for profile platforms. *)
