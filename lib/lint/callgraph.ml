(* Cross-module value-level call graph.

   Phase 1 (per file, cacheable): [extract] walks one parsetree and
   produces a [fragment] — the file's top-level value definitions, every
   identifier each one references, the mutation / blocking / unsafe
   sites inside it, and the references made from inside arguments of a
   parallel primitive.  Fragments are plain data (no [Location.t], no
   closures) so they marshal into the digest-keyed cache.

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

let rec peel e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> peel e
  | _ -> e

let ident_path e =
  match (peel e).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match try Longident.flatten txt with _ -> [] with
      | "Stdlib" :: rest -> rest
      | p -> p)
  | _ -> []

let longident_path lid =
  match try Longident.flatten lid with _ -> [] with
  | "Stdlib" :: rest -> rest
  | p -> p

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
  match (peel e).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match longident_path txt with
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
  mutable b_escape_refs : (string list * string) list;
  mutable b_sites : site list;
  mutable b_guards : string list;
}

type ctx = {
  file : string;
  file_allows : string list;
  mutable modstack : string list;  (* reversed nested-module names *)
  mutable opens : string list list;
  mutable aliases : (string * string list) list;
  mutable defs : def list;  (* reversed *)
  mutable parallel_sites : (pos * string) list;
  mutable cur : def_builder option;
  mutable allow_stack : string list list;
  mutable bv_stack : string list;  (* bounds_validated payloads in scope *)
  mutable protect_depth : int;
  mutable par_prim : string option;  (* innermost parallel-argument context *)
  mutable forvars : string list;
  mutable locals : (string * (string list list * site list)) list;
      (* let-bound names in scope, with their expressions' refs and sites *)
}

let allowed ctx id =
  List.mem id ctx.file_allows
  || List.exists (fun ids -> List.mem id ids) ctx.allow_stack

let bounds_validated_of attrs =
  List.fold_left
    (fun acc (a : attribute) ->
      if a.attr_name.Location.txt = "nldl.bounds_validated" then
        match Attrs.string_payload a with Some s -> Some s | None -> acc
      else acc)
    None attrs

let add_site ctx ~loc kind =
  match ctx.cur with
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
          s_allowed = allowed ctx rule;
          s_direct = ctx.par_prim;
        }
        :: b.b_sites

(* A local closure named inside a parallel argument
   ([let f i = … in Exec.Pool.parallel_for pool n f]) runs on the pool
   as if written inline: its refs (and those of the locals it names)
   become escape refs, and its sites count as direct. *)
let escape_local ctx b prim path =
  let rec go seen = function
    | [ v ] when not (List.mem v seen) -> (
        match List.assoc_opt v ctx.locals with
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

let add_ref ctx path =
  match ctx.cur with
  | None -> ()
  | Some b -> (
      b.b_refs <- path :: b.b_refs;
      match ctx.par_prim with
      | Some prim ->
          b.b_escape_refs <- (path, prim) :: b.b_escape_refs;
          escape_local ctx b prim path
      | None -> ())

let add_guards ctx e =
  match ctx.cur with
  | None -> ()
  | Some b -> b.b_guards <- expr_vars e b.b_guards

let rec walk_expr ctx e =
  let allows = Attrs.allows e.pexp_attributes in
  let saved_allow = ctx.allow_stack in
  if allows <> [] then ctx.allow_stack <- allows :: ctx.allow_stack;
  let saved_bv = ctx.bv_stack in
  (match bounds_validated_of e.pexp_attributes with
  | Some s -> ctx.bv_stack <- s :: ctx.bv_stack
  | None -> ());
  (match e.pexp_desc with
  | Pexp_ident { txt; _ } -> add_ref ctx (longident_path txt)
  | Pexp_apply (f, args) -> walk_apply ctx e f args
  | Pexp_setfield (target, field, v) ->
      (match ident_path target with
      | [] -> ()
      | path ->
          let fname =
            match longident_path field.Location.txt with
            | [] -> "?"
            | p -> List.nth p (List.length p - 1)
          in
          add_site ctx ~loc:e.pexp_loc
            (Mutation
               {
                 m_target = String.concat "." path;
                 m_path = path;
                 m_op = "." ^ fname ^ " <-";
                 m_protected = ctx.protect_depth > 0;
               }));
      walk_expr ctx target;
      walk_expr ctx v
  | Pexp_for (pat, lo, hi, _, body) ->
      walk_expr ctx lo;
      walk_expr ctx hi;
      let saved = ctx.forvars in
      ctx.forvars <- pattern_vars pat ctx.forvars;
      walk_expr ctx body;
      ctx.forvars <- saved
  | Pexp_ifthenelse (c, t, f) ->
      add_guards ctx c;
      walk_expr ctx c;
      walk_expr ctx t;
      Option.iter (walk_expr ctx) f
  | Pexp_while (c, body) ->
      add_guards ctx c;
      walk_expr ctx c;
      walk_expr ctx body
  | Pexp_assert c ->
      add_guards ctx c;
      walk_expr ctx c
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      walk_expr ctx s;
      walk_cases ctx cases
  | Pexp_function cases -> walk_cases ctx cases
  | Pexp_fun (_, default, _, body) ->
      Option.iter (walk_expr ctx) default;
      walk_expr ctx body
  | Pexp_let (_, vbs, body) ->
      let saved = ctx.locals in
      List.iter (fun vb -> walk_local ctx vb) vbs;
      walk_expr ctx body;
      ctx.locals <- saved
  | Pexp_open (od, body) ->
      (match od.popen_expr.pmod_desc with
      | Pmod_ident { txt; _ } -> ctx.opens <- longident_path txt :: ctx.opens
      | _ -> ());
      walk_expr ctx body
  | Pexp_letmodule (name, me, body) ->
      (match (name.Location.txt, me.pmod_desc) with
      | Some n, Pmod_ident { txt; _ } ->
          ctx.aliases <- (n, longident_path txt) :: ctx.aliases
      | _ -> ());
      walk_module_expr ctx me;
      walk_expr ctx body
  | Pexp_sequence (a, b) ->
      walk_expr ctx a;
      walk_expr ctx b
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_lazy e
  | Pexp_newtype (_, e) | Pexp_poly (e, _) | Pexp_send (e, _) ->
      walk_expr ctx e
  | Pexp_tuple es | Pexp_array es -> List.iter (walk_expr ctx) es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      Option.iter (walk_expr ctx) arg
  | Pexp_record (fields, base) ->
      List.iter (fun (_, e) -> walk_expr ctx e) fields;
      Option.iter (walk_expr ctx) base
  | Pexp_field (b, _) -> walk_expr ctx b
  | Pexp_letexception (_, body) -> walk_expr ctx body
  | Pexp_letop { let_; ands; body } ->
      walk_expr ctx let_.pbop_exp;
      List.iter (fun a -> walk_expr ctx a.pbop_exp) ands;
      walk_expr ctx body
  | Pexp_constant _ | Pexp_new _ | Pexp_pack _ | Pexp_extension _
  | Pexp_object _ | Pexp_override _ | Pexp_setinstvar _ | Pexp_unreachable ->
      ());
  ctx.allow_stack <- saved_allow;
  ctx.bv_stack <- saved_bv

and walk_cases ctx cases =
  List.iter
    (fun c ->
      (match c.pc_guard with
      | Some g ->
          add_guards ctx g;
          walk_expr ctx g
      | None -> ());
      walk_expr ctx c.pc_rhs)
    cases

and walk_apply ctx e f args =
  let callee = ident_path f in
  (* Record the callee reference itself (outside any argument context it
     may open below). *)
  walk_expr ctx f;
  (* Mutation: [:=]/[incr]/[decr] and [M.set]-shaped stores on an
     identifier target. *)
  (match (store_op callee, args) with
  | Some op, (_, target) :: _ -> (
      match ident_path target with
      | [] -> ()
      | path ->
          add_site ctx ~loc:e.pexp_loc
            (Mutation
               {
                 m_target = String.concat "." path;
                 m_path = path;
                 m_op = op;
                 m_protected = ctx.protect_depth > 0;
               }))
  | _ -> ());
  (* Unsafe access: obligation payload for R402. *)
  (match List.rev callee with
  | last :: _ :: _ when String.length last > 7 && String.sub last 0 7 = "unsafe_"
    -> (
      match args with
      | [] -> ()
      | _ :: index_args ->
          let index_args =
            (* the final argument of a store is the value, not an index *)
            if
              (match List.rev callee with
              | l :: _ ->
                  (String.length l >= 3
                  && String.sub l (String.length l - 3) 3 = "set")
                  || l = "unsafe_fill" || l = "unsafe_blit"
              | [] -> false)
              && List.length index_args > 1
            then
              List.filteri
                (fun i _ -> i < List.length index_args - 1)
                index_args
            else index_args
          in
          let vars =
            List.sort_uniq String.compare
              (List.fold_left
                 (fun acc (_, a) -> expr_vars a acc)
                 [] index_args)
          in
          add_site ctx ~loc:e.pexp_loc
            (Unsafe
               {
                 u_callee = String.concat "." callee;
                 u_vars = vars;
                 u_forvars = List.sort_uniq String.compare ctx.forvars;
                 u_validated_by =
                   (match ctx.bv_stack with s :: _ -> Some s | [] -> None);
               }))
  | _ -> ());
  (* Blocking syscalls. *)
  if List.mem callee blocking_prims then
    add_site ctx ~loc:e.pexp_loc (Blocking (String.concat "." callee));
  (* Argument context: Mutex.protect guards its argument; a parallel
     primitive makes everything inside its arguments escape. *)
  if callee = [ "Mutex"; "protect" ] then begin
    ctx.protect_depth <- ctx.protect_depth + 1;
    List.iter (fun (_, a) -> walk_expr ctx a) args;
    ctx.protect_depth <- ctx.protect_depth - 1
  end
  else
    match parallel_prim callee with
    | Some prim ->
        ctx.parallel_sites <- (pos_of e.pexp_loc, prim) :: ctx.parallel_sites;
        let saved = ctx.par_prim in
        ctx.par_prim <- Some prim;
        List.iter (fun (_, a) -> walk_expr ctx a) args;
        ctx.par_prim <- saved
    | None -> List.iter (fun (_, a) -> walk_expr ctx a) args

(* A let-bound name: remember the refs and sites its expression recorded. *)
and walk_local ctx vb =
  match (ctx.cur, vb.pvb_pat.ppat_desc) with
  | Some b, Ppat_var { txt; _ } ->
      let refs = List.length b.b_refs and sites = List.length b.b_sites in
      walk_vb_expr ctx vb;
      let added l before = List.filteri (fun i _ -> i < List.length l - before) l in
      ctx.locals <- (txt, (added b.b_refs refs, added b.b_sites sites)) :: ctx.locals
  | _ -> walk_vb_expr ctx vb

(* A let inside an expression: its attributes still scope allows and
   bounds_validated over the bound body. *)
and walk_vb_expr ctx vb =
  let allows = Attrs.allows vb.pvb_attributes in
  let saved_allow = ctx.allow_stack in
  if allows <> [] then ctx.allow_stack <- allows :: ctx.allow_stack;
  let saved_bv = ctx.bv_stack in
  (match bounds_validated_of vb.pvb_attributes with
  | Some s -> ctx.bv_stack <- s :: ctx.bv_stack
  | None -> ());
  walk_expr ctx vb.pvb_expr;
  ctx.allow_stack <- saved_allow;
  ctx.bv_stack <- saved_bv

and walk_module_expr ctx me =
  match me.pmod_desc with
  | Pmod_structure str -> walk_structure ctx str
  | Pmod_functor (_, body) -> walk_module_expr ctx body
  | Pmod_constraint (me, _) -> walk_module_expr ctx me
  | Pmod_apply (a, b) ->
      walk_module_expr ctx a;
      walk_module_expr ctx b
  | Pmod_apply_unit a -> walk_module_expr ctx a
  | Pmod_ident _ | Pmod_unpack _ | Pmod_extension _ -> ()

and walk_structure ctx str = List.iter (walk_structure_item ctx) str

and walk_structure_item ctx si =
  match si.pstr_desc with
  | Pstr_value (_, vbs) when ctx.cur = None ->
      List.iter (fun vb -> walk_top_binding ctx vb) vbs
  | Pstr_value (_, vbs) -> List.iter (fun vb -> walk_vb_expr ctx vb) vbs
  | Pstr_eval (e, _) when ctx.cur = None ->
      finish_def ctx ~names:[ "_" ] ~loc:si.pstr_loc (fun () ->
          walk_expr ctx e)
  | Pstr_eval (e, _) -> walk_expr ctx e
  | Pstr_module mb -> walk_module_binding ctx mb
  | Pstr_recmodule mbs -> List.iter (walk_module_binding ctx) mbs
  | Pstr_open od -> (
      match od.popen_expr.pmod_desc with
      | Pmod_ident { txt; _ } -> ctx.opens <- longident_path txt :: ctx.opens
      | me -> walk_module_expr ctx { od.popen_expr with pmod_desc = me })
  | Pstr_include id -> walk_module_expr ctx id.pincl_mod
  | Pstr_attribute _ | Pstr_primitive _ | Pstr_type _ | Pstr_typext _
  | Pstr_exception _ | Pstr_modtype _ | Pstr_class _ | Pstr_class_type _
  | Pstr_extension _ ->
      ()

and walk_module_binding ctx mb =
  match (mb.pmb_name.Location.txt, mb.pmb_expr.pmod_desc) with
  | Some n, Pmod_ident { txt; _ } ->
      ctx.aliases <- (n, longident_path txt) :: ctx.aliases
  | name, _ ->
      let saved = ctx.modstack in
      (match name with Some n -> ctx.modstack <- n :: ctx.modstack | None -> ());
      walk_module_expr ctx mb.pmb_expr;
      ctx.modstack <- saved

and finish_def ctx ~names ~loc ?(is_func = false) walk =
  let b =
    { b_refs = []; b_escape_refs = []; b_sites = []; b_guards = [] }
  in
  ctx.cur <- Some b;
  walk ();
  ctx.cur <- None;
  let first = match names with n :: _ -> n | [] -> "_" in
  let path = List.rev_append ctx.modstack [ first ] in
  ctx.defs <-
    {
      d_names = names;
      d_path = path;
      d_pos = pos_of loc;
      d_is_func = is_func;
      d_refs = List.sort_uniq compare b.b_refs;
      d_escape_refs = List.sort_uniq compare b.b_escape_refs;
      d_sites = List.rev b.b_sites;
      d_guards = List.sort_uniq String.compare b.b_guards;
    }
    :: ctx.defs

and walk_top_binding ctx vb =
  let names =
    match List.rev (pattern_vars vb.pvb_pat []) with
    | [] -> [ "_" ]
    | ns -> ns
  in
  let allows = Attrs.allows vb.pvb_attributes in
  let saved_allow = ctx.allow_stack in
  if allows <> [] then ctx.allow_stack <- allows :: ctx.allow_stack;
  let saved_bv = ctx.bv_stack in
  (match bounds_validated_of vb.pvb_attributes with
  | Some s -> ctx.bv_stack <- s :: ctx.bv_stack
  | None -> ());
  let rec is_func e =
    match (peel e).pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> true
    | Pexp_newtype (_, e) -> is_func e
    | _ -> false
  in
  finish_def ctx ~names ~loc:vb.pvb_loc ~is_func:(is_func vb.pvb_expr)
    (fun () -> walk_expr ctx vb.pvb_expr);
  ctx.allow_stack <- saved_allow;
  ctx.bv_stack <- saved_bv

let extract ~file ~(marks : Attrs.file_marks) (str : structure) =
  let modpath = modpath_of_file file in
  let ctx =
    {
      file;
      file_allows = marks.file_allows;
      modstack = List.rev modpath;
      opens = [];
      aliases = [];
      defs = [];
      parallel_sites = [];
      cur = None;
      allow_stack = [];
      bv_stack = [];
      protect_depth = 0;
      par_prim = None;
      forvars = [];
      locals = [];
    }
  in
  walk_structure ctx str;
  {
    f_file = file;
    f_modpath = modpath;
    f_opens = List.rev ctx.opens;
    f_aliases = List.rev ctx.aliases;
    f_defs = List.rev ctx.defs;
    f_unsafe_zone = marks.unsafe_zone <> None;
    f_domain_safe = marks.domain_safe <> None;
    f_parallel_sites = List.rev ctx.parallel_sites;
  }

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
