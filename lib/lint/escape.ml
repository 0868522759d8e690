(* Parallel-escape analysis: which functions can run on a pool domain?

   Roots are the definitions referenced from inside an argument of a
   parallel primitive ([Exec.Pool.parallel_for]/[parallel_map_array],
   [Domain.spawn], [Serve.Batch] fan-out, [Numerics.Parallel.parallel_for]);
   the escape set is their forward closure over the call graph.  A plain
   breadth-first fixpoint suffices — edges are static and cycles are
   harmless (a visited-set BFS terminates on any graph).

   Each escaping node keeps a witness: the primitive and root that first
   reached it, so findings can say *why* a function counts as parallel
   ("reachable from closure passed to Exec.Pool.parallel_map_array via
   Api.Eval.eval"). *)

type witness = {
  w_prim : string;  (* the parallel primitive at the root *)
  w_root : string;  (* qualified name of the root definition *)
}

type t = {
  escaping : bool array;
  witness : witness option array;
}

let compute g =
  let n = Callgraph.node_count g in
  let escaping = Array.make n false in
  let witness = Array.make n None in
  let q = Queue.create () in
  List.iter
    (fun (id, prim) ->
      if not escaping.(id) then begin
        escaping.(id) <- true;
        witness.(id) <-
          Some
            {
              w_prim = prim;
              w_root = String.concat "." (Callgraph.node g id).Callgraph.n_path;
            };
        Queue.add id q
      end)
    (Callgraph.roots g);
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    List.iter
      (fun s ->
        if not escaping.(s) then begin
          escaping.(s) <- true;
          witness.(s) <- witness.(id);
          Queue.add s q
        end)
      (Callgraph.succs g id)
  done;
  { escaping; witness }

let escapes t id = t.escaping.(id)
let witness t id = t.witness.(id)

let describe t id =
  match t.witness.(id) with
  | Some w -> Printf.sprintf "reachable from closure passed to %s (root %s)" w.w_prim w.w_root
  | None -> "not escaping"

let count t = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.escaping
