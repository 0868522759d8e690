(* Thin facade over the shared domain pool in [Exec.Pool]: a
   [parallel_for] keyed by a domain count instead of a pool handle, with
   the worker domains spawned once and reused across every call. *)

let default_domains = Exec.Pool.default_domains

let resolve domains =
  match domains with Some d -> max 1 d | None -> default_domains ()

let parallel_for ?domains n body =
  let domains = resolve domains in
  if domains <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      body i
    done
  else
    Exec.Pool.parallel_for ~workers:domains
      (Exec.Pool.get_global ~at_least:domains ())
      n body

let warm_up ?domains () =
  let domains = resolve domains in
  if domains > 1 then ignore (Exec.Pool.get_global ~at_least:domains ())
