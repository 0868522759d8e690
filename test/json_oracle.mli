(** The wire codec's decoder, emitter and cache key as they stood before
    the single-pass rewrite: [Obs.Json.of_string], [Obs.Json.to_compact],
    [Api.Request.of_json] and the decimal-text
    [Api.Fingerprint.of_request].

    One rule was added after the freeze: the emitter writes [-0.] as
    [-0.0], as [Obs.Json] does, so it reads back as the float [-0.].

    Frozen test oracle: [Test_wire_codec] checks the live codec against
    it, results and error texts byte for byte, and checks that the
    raw-bit fingerprint has the same equivalence classes as the decimal
    key below.  Slow and simple on purpose; do not optimise. *)

val of_string : string -> (Obs.Json.t, string) result
val to_compact : Obs.Json.t -> string
val request_of_json : Obs.Json.t -> (Api.Request.t, string) result

val fingerprint : Api.Request.t -> string
(** The decimal key: ["v1|kind|comm|workload|bw:..|lat:..|total:..|speeds:,s1,..."]
    with every float in [%.15g]/[%.17g] text and the speeds of the
    materialized star. *)
