(** A word-count MapReduce job: the fixture for the engine and combiner
    tests. *)

val job : docs:string array -> (string, int) Mapreduce.Engine.job
(** One map task per document; keys are whitespace-separated words,
    reduced by summing counts. *)
