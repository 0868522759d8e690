(* The linear-complexity job MapReduce was designed for (paper §1.1),
   kept as an input for the engine and combiner tests: one map task per
   document, keys are whitespace-separated words, reduced by summing. *)

let words_of doc =
  String.split_on_char ' ' doc
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")

let job ~docs =
  let tasks =
    Array.mapi
      (fun i doc ->
        Mapreduce.Task.make ~id:i ~data_ids:[| i |]
          ~cost:(float_of_int (max 1 (String.length doc))))
      docs
  in
  let execute i = List.map (fun w -> (w, 1)) (words_of docs.(i)) in
  let block_size i = float_of_int (max 1 (String.length docs.(i))) in
  { Mapreduce.Engine.tasks; execute; block_size }
