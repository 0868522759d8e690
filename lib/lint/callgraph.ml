(* Cross-module value-level call graph.

   Phase 1 (per file): [extend] layers the extraction onto the lint
   rules' [Ast_iterator], so the one walk of a file that runs the rules
   also collects its [fragment] — the file's top-level value
   definitions, every identifier each one references, the mutation /
   blocking / unsafe sites inside it, and the references made from
   inside arguments of a parallel primitive.  Fragments are plain data
   (no [Location.t], no closures).

   Phase 2 (whole program): [build] indexes every definition of every
   fragment under all dotted suffixes of its qualified path
   ([lib/exec/pool.ml]'s [parallel_for] answers to
   [Exec.Pool.parallel_for], [Pool.parallel_for] and — within its own
   file — [parallel_for]) and resolves references into edges.

   The graph deliberately over-approximates: referencing a function
   counts as calling it (so first-class functions, functors and
   closures stored in records are all covered without data-flow
   analysis), unqualified names resolve against every same-file
   top-level binding regardless of shadowing, and [open]/module-alias
   expansion is applied file-wide.  Missing an edge would silence a
   race finding; a spurious edge only costs a reviewed audit
   annotation. *)

type pos = { line : int; col : int }

type mutation = {
  m_target : string;  (* printable target, e.g. "global" or "Pool.global" *)
  m_path : string list;  (* target identifier path, for phase-2 resolution *)
  m_op : string;  (* ":=", "<-", "Array.set", ... *)
  m_protected : bool;  (* under a Mutex.protect argument *)
}

type unsafe_site = {
  u_callee : string;  (* e.g. "Array.unsafe_get" *)
  u_vars : string list;  (* variables of the index arguments *)
  u_forvars : string list;  (* enclosing for-loop variables at the site *)
  u_validated_by : string option;  (* [@nldl.bounds_validated "site"] in scope *)
}

type site_kind =
  | Mutation of mutation
  | Blocking of string  (* blocking primitive, e.g. "Unix.sleepf" *)
  | Unsafe of unsafe_site

type site = {
  s_pos : pos;
  s_kind : site_kind;
  s_allowed : bool;  (* the matching rule id is allow-suppressed here *)
  s_direct : string option;
      (* [Some prim] when the site sits syntactically inside an argument
         of a parallel primitive: escaping by construction, no graph
         reachability needed *)
}

type def = {
  d_names : string list;  (* variables bound (several for tuple patterns) *)
  d_path : string list;  (* module path of the file + nested modules + first name *)
  d_pos : pos;
  d_is_func : bool;
      (* body is syntactically a lambda: cannot be mutable state, so a
         same-named local ref shadowing it is not a module-level write *)
  d_refs : string list list;  (* every identifier path referenced in the body *)
  d_escape_refs : (string list * string) list;
      (* (path, primitive): references made inside parallel-primitive
         arguments — the escape-analysis roots *)
  d_sites : site list;
  d_guards : string list;
      (* identifiers mentioned in if/while/assert/when conditions
         anywhere in the body (flow-insensitive dominance approximation
         for R402) *)
}

type fragment = {
  f_file : string;
  f_modpath : string list;  (* qualified module path of the file *)
  f_opens : string list list;
  f_aliases : (string * string list) list;  (* module P = Exec.Pool *)
  f_defs : def list;
  f_unsafe_zone : bool;
  f_domain_safe : bool;
  f_parallel_sites : (pos * string) list;  (* artifact: where fan-out happens *)
}

let empty_fragment ~file =
  {
    f_file = file;
    f_modpath = [];
    f_opens = [];
    f_aliases = [];
    f_defs = [];
    f_unsafe_zone = false;
    f_domain_safe = false;
    f_parallel_sites = [];
  }

(* lib/exec/pool.ml defines Exec.Pool (each lib/ directory is a wrapped
   library whose name is the directory); bin/bench/test executables are
   unwrapped, so their files answer to the bare module name. *)
let modpath_of_file file =
  let modname base =
    String.capitalize_ascii (Filename.remove_extension base)
  in
  match String.split_on_char '/' file with
  | [ "lib"; dir; base ] -> [ String.capitalize_ascii dir; modname base ]
  | segs -> (
      match List.rev segs with base :: _ -> [ modname base ] | [] -> [])

(* --- parallel primitives and blocking syscalls -------------------------- *)

let fanout_modules = [ "Pool"; "Parallel"; "Batch" ]

(* Is this callee path a parallel fan-out primitive?  Closures passed to
   it run on other domains.  [Numerics.Parallel] forwards to
   [Exec.Pool], and [Serve.Batch] fans misses out on the pool, so their
   entry points are triggers of their own: a closure handed to a
   forwarding wrapper never syntactically reaches the inner
   [parallel_for] call (the wrapper passes its parameter on), so the
   wrapper must be recognized directly. *)
let parallel_prim path =
  match List.rev path with
  | [ "spawn"; "Domain" ] -> Some "Domain.spawn"
  | last :: rest -> (
      let qualifies =
        match rest with
        | [] -> true (* unqualified: inside the defining module itself *)
        | m :: _ -> List.mem m fanout_modules
      in
      match last with
      | ("parallel_for" | "parallel_map_array") when qualifies ->
          Some (String.concat "." path)
      | ("handle_batch" | "handle_line")
        when (match rest with m :: _ -> List.mem m fanout_modules | [] -> false)
        ->
          Some (String.concat "." path)
      | _ -> None)
  | [] -> None

let blocking_prims =
  [
    [ "Unix"; "sleep" ];
    [ "Unix"; "sleepf" ];
    [ "Unix"; "select" ];
    [ "Unix"; "accept" ];
    [ "Unix"; "read" ];
    [ "Unix"; "recv" ];
    [ "Unix"; "connect" ];
    [ "Unix"; "wait" ];
    [ "Unix"; "waitpid" ];
    [ "Mutex"; "lock" ];
    [ "Condition"; "wait" ];
    [ "Thread"; "delay" ];
    [ "input_line" ];
    [ "input_char" ];
    [ "input_byte" ];
    [ "really_input" ];
    [ "really_input_string" ];
  ]

(* Stores: a call [M.set x ...] / [M.blit .. x ..] / [x := ...] mutates
   its target.  [Atomic] and [Domain.DLS] are the sanctioned mechanisms
   and are not stores for R401's purposes. *)
let store_op path =
  match path with
  | [ ":=" ] | [ "incr" ] | [ "decr" ] -> Some (String.concat "." path)
  | _ -> (
      match List.rev path with
      | ("set" | "unsafe_set" | "fill") :: m :: _
        when m <> "Atomic" && m <> "DLS" ->
          Some (String.concat "." path)
      | _ -> None)

(* --- extraction --------------------------------------------------------- *)

open Parsetree

let pos_of (loc : Location.t) =
  let p = loc.Location.loc_start in
  { line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol }

let peeled_path e = Rules.ident_path (Rules.peel e)

let rec pattern_vars p acc =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pattern_vars p (txt :: acc)
  | Ppat_tuple ps | Ppat_array ps ->
      List.fold_left (fun acc p -> pattern_vars p acc) acc ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) ->
      pattern_vars p acc
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, p) -> pattern_vars p acc) acc fields
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_lazy p
  | Ppat_exception p ->
      pattern_vars p acc
  | Ppat_or (a, b) -> pattern_vars a (pattern_vars b acc)
  | _ -> acc

(* Variables of an index expression: plain identifiers plus the base
   variable of field accesses ([t.off] reads as [t]).  Operators ([+],
   [!], ...) are applications of symbolic idents and are not variables. *)
let is_var_name v =
  v <> ""
  && (match v.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)

let rec expr_vars e acc =
  match (Rules.peel e).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Rules.longident_path txt with
      | [ v ] when is_var_name v -> v :: acc
      | _ -> acc)
  | Pexp_field (b, _) -> expr_vars b acc
  | Pexp_apply (f, args) ->
      List.fold_left (fun acc (_, a) -> expr_vars a acc) (expr_vars f acc) args
  | Pexp_tuple es -> List.fold_left (fun acc e -> expr_vars e acc) acc es
  | _ -> acc

(* Accumulator for the definition currently being walked. *)
type def_builder = {
  mutable b_refs : string list list;
  mutable b_nrefs : int;  (* List.length b_refs *)
  mutable b_escape_refs : (string list * string) list;
  mutable b_sites : site list;
  mutable b_nsites : int;  (* List.length b_sites *)
  mutable b_guards : string list;
}

(* Extraction state for one file.  Allow suppression is read from the
   rules' [scope], whose stack {!Rules.scoping} maintains on the same
   walk; everything else here is context only the extraction needs. *)
type state = {
  scope : Rules.scope;
  modpath : string list;
  mutable modstack : string list;  (* reversed nested-module names *)
  mutable opens : string list list;
  mutable aliases : (string * string list) list;
  mutable defs : def list;  (* reversed *)
  mutable parallel_sites : (pos * string) list;
  mutable cur : def_builder option;
  mutable bv_stack : string list;  (* bounds_validated payloads in scope *)
  mutable protect_depth : int;
  mutable par_prim : string option;  (* innermost parallel-argument context *)
  mutable forvars : string list;
  mutable locals : (string * (string list list * site list)) list;
      (* let-bound names in scope, with their expressions' refs and sites *)
}

let state (scope : Rules.scope) =
  let modpath = modpath_of_file scope.file in
  {
    scope;
    modpath;
    modstack = List.rev modpath;
    opens = [];
    aliases = [];
    defs = [];
    parallel_sites = [];
    cur = None;
    bv_stack = [];
    protect_depth = 0;
    par_prim = None;
    forvars = [];
    locals = [];
  }

let fragment st =
  {
    f_file = st.scope.file;
    f_modpath = st.modpath;
    f_opens = List.rev st.opens;
    f_aliases = List.rev st.aliases;
    f_defs = List.rev st.defs;
    f_unsafe_zone = st.scope.unsafe_zone;
    f_domain_safe = st.scope.domain_safe;
    f_parallel_sites = List.rev st.parallel_sites;
  }

let push_bounds_validated st attrs =
  List.iter
    (fun (a : attribute) ->
      if a.attr_name.Location.txt = "nldl.bounds_validated" then
        match Attrs.string_payload a with
        | Some s -> st.bv_stack <- s :: st.bv_stack
        | None -> ())
    attrs

let add_site st ~loc kind =
  match st.cur with
  | None -> ()
  | Some b ->
      let rule =
        match kind with
        | Mutation _ -> "R401"
        | Blocking _ -> "R403"
        | Unsafe _ -> "R402"
      in
      b.b_sites <-
        {
          s_pos = pos_of loc;
          s_kind = kind;
          s_allowed = Rules.allowed st.scope rule;
          s_direct = st.par_prim;
        }
        :: b.b_sites;
      b.b_nsites <- b.b_nsites + 1

let mutation st ~loc path op =
  add_site st ~loc
    (Mutation
       {
         m_target = String.concat "." path;
         m_path = path;
         m_op = op;
         m_protected = st.protect_depth > 0;
       })

(* A local closure named inside a parallel argument
   ([let f i = … in Exec.Pool.parallel_for pool n f]) runs on the pool
   as if written inline: its refs (and those of the locals it names)
   become escape refs, and its sites count as direct. *)
let escape_local st b prim path =
  let rec go seen = function
    | [ v ] when not (List.mem v seen) -> (
        match List.assoc_opt v st.locals with
        | None -> ()
        | Some (refs, sites) ->
            b.b_escape_refs <- List.map (fun r -> (r, prim)) refs @ b.b_escape_refs;
            b.b_sites <-
              List.map
                (fun s -> if List.memq s sites then { s with s_direct = Some prim } else s)
                b.b_sites;
            List.iter (go (v :: seen)) refs)
    | _ -> ()
  in
  go [] path

let add_ref st path =
  match st.cur with
  | None -> ()
  | Some b -> (
      b.b_refs <- path :: b.b_refs;
      b.b_nrefs <- b.b_nrefs + 1;
      match st.par_prim with
      | Some prim ->
          b.b_escape_refs <- (path, prim) :: b.b_escape_refs;
          escape_local st b prim path
      | None -> ())

let add_guards st e =
  match st.cur with
  | None -> ()
  | Some b -> b.b_guards <- expr_vars e b.b_guards

(* A top-level definition: everything walked between [open_def] and
   [close_def] is attributed to it. *)
let open_def st =
  let b =
    {
      b_refs = [];
      b_nrefs = 0;
      b_escape_refs = [];
      b_sites = [];
      b_nsites = 0;
      b_guards = [];
    }
  in
  st.cur <- Some b;
  b

let close_def st b ~names ~loc ~is_func =
  st.cur <- None;
  st.locals <- [];
  let first = match names with n :: _ -> n | [] -> "_" in
  st.defs <-
    {
      d_names = names;
      d_path = List.rev_append st.modstack [ first ];
      d_pos = pos_of loc;
      d_is_func = is_func;
      d_refs = List.sort_uniq compare b.b_refs;
      d_escape_refs = List.sort_uniq compare b.b_escape_refs;
      d_sites = List.rev b.b_sites;
      d_guards = List.sort_uniq String.compare b.b_guards;
    }
    :: st.defs

let rec is_func e =
  match (Rules.peel e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) -> is_func e
  | _ -> false

(* The final argument of a store is the value, not an index. *)
let is_store_callee callee =
  match List.rev callee with
  | l :: _ ->
      (String.length l >= 3 && String.sub l (String.length l - 3) 3 = "set")
      || l = "unsafe_fill" || l = "unsafe_blit"
  | [] -> false

(* An application: record its sites, then walk the callee outside and
   the arguments inside the context the callee opens ([Mutex.protect]
   guards its argument; a parallel primitive makes everything inside
   its arguments escape). *)
let apply st (self : Ast_iterator.iterator) e f args =
  let callee = peeled_path f in
  self.expr self f;
  (match (store_op callee, args) with
  | Some op, (_, target) :: _ -> (
      match peeled_path target with
      | [] -> ()
      | path -> mutation st ~loc:e.pexp_loc path op)
  | _ -> ());
  (if Rules.is_unsafe_path callee then
     match args with
     | [] -> ()
     | _ :: index_args ->
         let n = List.length index_args in
         let index_args =
           if is_store_callee callee && n > 1 then
             List.filteri (fun i _ -> i < n - 1) index_args
           else index_args
         in
         add_site st ~loc:e.pexp_loc
           (Unsafe
              {
                u_callee = String.concat "." callee;
                u_vars =
                  List.sort_uniq String.compare
                    (List.fold_left (fun acc (_, a) -> expr_vars a acc) [] index_args);
                u_forvars = List.sort_uniq String.compare st.forvars;
                u_validated_by =
                  (match st.bv_stack with s :: _ -> Some s | [] -> None);
              }));
  if List.mem callee blocking_prims then
    add_site st ~loc:e.pexp_loc (Blocking (String.concat "." callee));
  let protect_depth = st.protect_depth and par_prim = st.par_prim in
  (if callee = [ "Mutex"; "protect" ] then st.protect_depth <- protect_depth + 1
   else
     match parallel_prim callee with
     | Some prim ->
         st.parallel_sites <- (pos_of e.pexp_loc, prim) :: st.parallel_sites;
         st.par_prim <- Some prim
     | None -> ());
  List.iter (fun (_, a) -> self.expr self a) args;
  st.protect_depth <- protect_depth;
  st.par_prim <- par_prim

(* The extraction layer.  The driver composes it as the base of the rule
   fold, so one walk per file serves the rules and the graph. *)
let extend st (it : Ast_iterator.iterator) : Ast_iterator.iterator =
  (* Payloads are annotations, not code: a top-level attribute's string
     would otherwise read as a module-initialisation expression. *)
  let attribute _ _ = () in
  let expr self e =
    let bv_stack = st.bv_stack and forvars = st.forvars and locals = st.locals in
    (match e.pexp_attributes with [] -> () | attrs -> push_bounds_validated st attrs);
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> apply st self e f args
    | desc ->
        (match desc with
        | Pexp_ident _ -> add_ref st (Rules.ident_path e)
        | Pexp_setfield (target, field, _) -> (
            match peeled_path target with
            | [] -> ()
            | path ->
                mutation st ~loc:e.pexp_loc path
                  ("." ^ Longident.last field.Location.txt ^ " <-"))
        | Pexp_for (pat, _, _, _, _) -> st.forvars <- pattern_vars pat st.forvars
        | Pexp_ifthenelse (c, _, _) | Pexp_while (c, _) | Pexp_assert c ->
            add_guards st c
        | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, _)
          ->
            st.opens <- Rules.longident_path txt :: st.opens
        | Pexp_letmodule
            ({ txt = Some n; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
            st.aliases <- (n, Rules.longident_path txt) :: st.aliases
        | _ -> ());
        it.expr self e);
    st.bv_stack <- bv_stack;
    st.forvars <- forvars;
    st.locals <- locals
  in
  let case self c =
    (match c.pc_guard with Some g -> add_guards st g | None -> ());
    it.case self c
  in
  let value_binding self vb =
    let bv_stack = st.bv_stack in
    push_bounds_validated st vb.pvb_attributes;
    (match (st.cur, vb.pvb_pat.ppat_desc) with
    | None, _ ->
        let b = open_def st in
        it.value_binding self vb;
        let names =
          match List.rev (pattern_vars vb.pvb_pat []) with [] -> [ "_" ] | ns -> ns
        in
        close_def st b ~names ~loc:vb.pvb_loc ~is_func:(is_func vb.pvb_expr)
    | Some b, Ppat_var { txt; _ } ->
        (* A let-bound name: remember the refs and sites its expression
           recorded, for [escape_local]. *)
        let refs = b.b_nrefs and sites = b.b_nsites in
        it.value_binding self vb;
        let rec take n l =
          match l with x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []
        in
        st.locals <-
          (txt, (take (b.b_nrefs - refs) b.b_refs, take (b.b_nsites - sites) b.b_sites))
          :: st.locals
    | Some _, _ -> it.value_binding self vb);
    st.bv_stack <- bv_stack
  in
  let structure_item self si =
    match si.pstr_desc with
    | Pstr_eval _ when st.cur = None ->
        let b = open_def st in
        it.structure_item self si;
        close_def st b ~names:[ "_" ] ~loc:si.pstr_loc ~is_func:false
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        st.opens <- Rules.longident_path txt :: st.opens
    | _ -> it.structure_item self si
  in
  let module_binding self mb =
    let rec unpack me =
      match me.pmod_desc with
      | Pmod_unpack _ -> true
      | Pmod_constraint (me, _) -> unpack me
      | _ -> false
    in
    match (mb.pmb_name.Location.txt, mb.pmb_expr.pmod_desc) with
    | Some n, Pmod_ident { txt; _ } ->
        st.aliases <- (n, Rules.longident_path txt) :: st.aliases
    | Some n, _ when st.cur = None && unpack mb.pmb_expr ->
        (* [module M = (val e : S)] runs [e] at module initialisation:
           a definition named [M], like a [let]. *)
        let b = open_def st in
        it.module_binding self mb;
        close_def st b ~names:[ n ] ~loc:mb.pmb_loc ~is_func:false
    | name, _ ->
        let modstack = st.modstack in
        Option.iter (fun n -> st.modstack <- n :: modstack) name;
        it.module_binding self mb;
        st.modstack <- modstack
  in
  { it with attribute; expr; case; value_binding; structure_item; module_binding }

(* --- whole-program graph ------------------------------------------------ *)

type node = {
  n_id : int;
  n_names : string list;
  n_path : string list;
  n_file : string;
  n_pos : pos;
  n_frag : int;  (* fragment index *)
  n_def : int;  (* def index within the fragment *)
}

type t = {
  fragments : fragment array;
  nodes : node array;
  succs : int list array;
  roots : (int * string) list;  (* (node, primitive) escape roots *)
  suffix_tbl : (string, int list) Hashtbl.t;
  local_tbl : (string * string, int list) Hashtbl.t;
}

let key path = String.concat "." path

let rec suffixes path =
  match path with
  | [] | [ _ ] -> []
  | _ :: tl as p -> p :: suffixes tl

let add_tbl tbl k id =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  if not (List.mem id prev) then Hashtbl.replace tbl k (id :: prev)

(* Resolve a reference path seen in [frag] to node ids.  Unqualified
   names resolve against same-file top-level bindings (plus anything a
   file-wide [open] brings in); qualified names resolve by dotted-path
   suffix, with module aliases expanded first. *)
let resolve t frag path =
  let path =
    match path with
    | head :: tl -> (
        match List.assoc_opt head t.fragments.(frag).f_aliases with
        | Some target -> target @ tl
        | None -> path)
    | [] -> []
  in
  match path with
  | [] -> []
  | [ name ] ->
      let local =
        Option.value ~default:[]
          (Hashtbl.find_opt t.local_tbl (t.fragments.(frag).f_file, name))
      in
      List.fold_left
        (fun acc o ->
          Option.value ~default:[]
            (Hashtbl.find_opt t.suffix_tbl (key (o @ [ name ])))
          @ acc)
        local
        t.fragments.(frag).f_opens
      |> List.sort_uniq compare
  | _ ->
      Option.value ~default:[] (Hashtbl.find_opt t.suffix_tbl (key path))

(* Resolve a dotted name (e.g. an [@nldl.bounds_validated] payload) from
   anywhere: suffix match, falling back to same-file locals. *)
let resolve_name t ~file name =
  let path = String.split_on_char '.' (String.trim name) in
  match path with
  | [ n ] ->
      Option.value ~default:[] (Hashtbl.find_opt t.local_tbl (file, n))
  | _ -> Option.value ~default:[] (Hashtbl.find_opt t.suffix_tbl (key path))

let build fragments =
  let fragments = Array.of_list fragments in
  let nodes = ref [] in
  let n = ref 0 in
  Array.iteri
    (fun fi frag ->
      List.iteri
        (fun di (d : def) ->
          nodes :=
            {
              n_id = !n;
              n_names = d.d_names;
              n_path = d.d_path;
              n_file = frag.f_file;
              n_pos = d.d_pos;
              n_frag = fi;
              n_def = di;
            }
            :: !nodes;
          incr n)
        frag.f_defs)
    fragments;
  let nodes = Array.of_list (List.rev !nodes) in
  let suffix_tbl = Hashtbl.create 1024 in
  let local_tbl = Hashtbl.create 1024 in
  Array.iter
    (fun node ->
      (* [n_path] is the file's module path, the submodules the binding
         sits in, then its first name: [Sub.name] in [lib/x/file.ml]
         answers to [Sub.name], [File.Sub.name] and [X.File.Sub.name]. *)
      let modules =
        match List.rev node.n_path with _ :: rev -> List.rev rev | [] -> []
      in
      List.iter
        (fun name ->
          add_tbl local_tbl (node.n_file, name) node.n_id;
          let qualified = modules @ [ name ] in
          List.iter
            (fun sfx -> add_tbl suffix_tbl (key sfx) node.n_id)
            (suffixes qualified))
        node.n_names)
    nodes;
  let t =
    {
      fragments;
      nodes;
      succs = Array.make (Array.length nodes) [];
      roots = [];
      suffix_tbl;
      local_tbl;
    }
  in
  let roots = ref [] in
  Array.iter
    (fun node ->
      let d = List.nth fragments.(node.n_frag).f_defs node.n_def in
      t.succs.(node.n_id) <-
        List.sort_uniq compare
          (List.concat_map (fun p -> resolve t node.n_frag p) d.d_refs);
      List.iter
        (fun (p, prim) ->
          List.iter
            (fun id -> roots := (id, prim) :: !roots)
            (resolve t node.n_frag p))
        d.d_escape_refs)
    nodes;
  { t with roots = List.sort_uniq compare !roots }

let node_count t = Array.length t.nodes
let node t id = t.nodes.(id)
let succs t id = t.succs.(id)
let roots t = t.roots
let fragments t = Array.to_list t.fragments

let def_of t id =
  let node = t.nodes.(id) in
  (t.fragments.(node.n_frag), List.nth t.fragments.(node.n_frag).f_defs node.n_def)

let find t name =
  match String.split_on_char '.' name with
  | [] -> []
  | [ _ ] ->
      Hashtbl.fold
        (fun (_, n) ids acc -> if n = name then ids @ acc else acc)
        t.local_tbl []
      |> List.sort_uniq compare
  | path -> Option.value ~default:[] (Hashtbl.find_opt t.suffix_tbl (key path))
