(** The versioned response envelope shared by every JSON-emitting
    surface: [nldl <exp> --json] tables, the [nldl serve] daemon's
    answers, [nldl query --inline], and the bench artifact's header.

    The typed value carries its provenance (which solver produced it)
    and the schema version.  Responses are pure functions of the
    request, so a cache hit is byte-identical to a cold solve (that
    identity is what the serve tests assert); hit/miss accounting is
    telemetry that lives in [Obs.Metrics] and the daemon's [stats]
    control query. *)

type provenance = { solver : string }

type worker_row = {
  speed : float;
  data : float;  (** data units assigned *)
  fraction : float;  (** data / total *)
  comm_start : float;
  comm_end : float;
  compute_start : float;
  compute_end : float;
}

type body =
  | Schedule of { makespan : float; workers : worker_row array }
  | Ratio of {
      makespan : float;
      ideal : float;  (** perfect-parallelism bound *)
      ratio : float;  (** makespan / ideal *)
      done_fraction : float;  (** fraction of sequential work performed *)
    }
  | Plan of { makespan : float; allocation : float array; fractions : float array }
  | Multi_load of {
      throughput : float;  (** platform steady-state capacity *)
      rates : float array;  (** per-worker steady-state rates *)
      admitted : float array;  (** per-load admitted demand, request order *)
      utilization : float;  (** admitted demand / capacity *)
    }
  | Table of { experiment : string; header : string list; rows : Obs.Json.t }
      (** registry experiment series — the [--json] surface *)
  | Error of { code : string; message : string }
      (** daemon-side rejections (parse, validation, admission) *)

type t = { body : body; provenance : provenance }

val schema_version : int

val error : ?solver:string -> code:string -> string -> t
(** An [Error] response; [solver] defaults to ["serve"]. *)

val is_error : t -> bool

val to_json : t -> Obs.Json.t
(** Canonical envelope: [schema_version], [kind], [provenance.solver],
    then the body fields. *)

val to_line : t -> string
(** Compact single-line {!to_json}, the wire format (no newline). *)

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}. *)
