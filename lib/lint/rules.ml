open Parsetree
open Ast_iterator

type scope = {
  file : string;
  in_lib : bool;
  in_kernels : bool;
  in_hot : bool;  (* lib/kernels/ or lib/linalg/: the flat-buffer hot libraries *)
  in_instrumented : bool;
      (* lib/des/, lib/mapreduce/, lib/exec/: hot paths that report
         through Obs and must not grow private timing/histogram code *)
  in_experiments : bool;
      (* lib/experiments/: response JSON goes through the Api.Response
         envelope, never hand-rolled Obs.Json constructors *)
  unsafe_zone : bool;
  domain_safe : bool;
  file_allows : string list;
  mutable expr_depth : int;
  mutable allow_stack : string list list;
  mutable unsafe_sites : int;
  emit : Finding.t -> unit;
}

type t = {
  id : string;
  group : string;
  synopsis : string;
  extend : scope -> iterator -> iterator;
}

let allowed scope id =
  List.mem id scope.file_allows
  || List.exists (fun ids -> List.mem id ids) scope.allow_stack

let report scope ~id ~loc message =
  if not (allowed scope id) then
    scope.emit (Finding.of_loc ~rule:id ~file:scope.file ~loc ~message)

(* --- shared syntax helpers ---------------------------------------------- *)

(* Flattened path of a long identifier, with any [Stdlib.]
   qualification stripped so [Stdlib.Random.int] and [Random.int] hit
   the same rule. *)
let longident_path lid =
  match try Longident.flatten lid with _ -> [] with
  | "Stdlib" :: rest -> rest
  | p -> p

let ident_path e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> longident_path txt | _ -> []

(* [M.unsafe_*]: an unchecked access (U101's and R402's subject). *)
let is_unsafe_path path =
  match List.rev path with
  | last :: _ :: _ -> String.length last > 7 && String.sub last 0 7 = "unsafe_"
  | _ -> false

let rec peel e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> peel e
  | _ -> e

let on_expr check scope it =
  { it with expr = (fun self e -> check scope e; it.expr self e) }

(* --- D: determinism ----------------------------------------------------- *)

let d001 =
  {
    id = "D001";
    group = "D";
    synopsis = "no Stdlib.Random global PRNG state; thread a seeded Numerics.Rng";
    extend =
      on_expr (fun scope e ->
          match ident_path e with
          | "Random" :: rest ->
              report scope ~id:"D001" ~loc:e.pexp_loc
                (Printf.sprintf
                   "%s uses the global Stdlib.Random state, which breaks seeded replay; \
                    thread a Numerics.Rng split per trial (the ?seed convention in \
                    Experiments.Registry)"
                   (String.concat "." ("Random" :: rest)))
          | _ -> ());
  }

let wall_clocks =
  [
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Unix"; "localtime" ];
    [ "Unix"; "gmtime" ];
    [ "Sys"; "time" ];
  ]

let d002 =
  {
    id = "D002";
    group = "D";
    synopsis = "no wall-clock reads outside Obs.Clock";
    extend =
      on_expr (fun scope e ->
          if scope.file <> "lib/obs/clock.ml" then
            let p = ident_path e in
            if List.mem p wall_clocks then
              report scope ~id:"D002" ~loc:e.pexp_loc
                (Printf.sprintf
                   "%s reads the wall clock (NTP slew, DST, non-determinism); use \
                    Obs.Clock's monotonic reads"
                   (String.concat "." p)));
  }

(* --- U: unsafe zones ---------------------------------------------------- *)

let u101 =
  {
    id = "U101";
    group = "U";
    synopsis = "*.unsafe_* access only inside an [@@@nldl.unsafe_zone] module";
    extend =
      on_expr (fun scope e ->
          if is_unsafe_path (ident_path e) then begin
            scope.unsafe_sites <- scope.unsafe_sites + 1;
            if not scope.unsafe_zone then
              report scope ~id:"U101" ~loc:e.pexp_loc
                (Printf.sprintf
                   "%s outside an [@@@nldl.unsafe_zone \"reason\"] module; validate \
                    bounds first and annotate the module, or use safe access"
                   (String.concat "." (ident_path e)))
          end);
  }

(* --- S: domain safety --------------------------------------------------- *)

let mutable_ctors =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
  ]

let binding_name vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | _ -> "_"

let s201 =
  {
    id = "S201";
    group = "S";
    synopsis =
      "no top-level mutable state in lib/ without [@@@nldl.domain_safe]";
    extend =
      (fun scope it ->
        {
          it with
          structure_item =
            (fun self si ->
              (match si.pstr_desc with
              | Pstr_value (_, vbs)
                when scope.expr_depth = 0 && scope.in_lib
                     && not scope.domain_safe ->
                  List.iter
                    (fun vb ->
                      if not (List.mem "S201" (Attrs.allows vb.pvb_attributes))
                      then
                        let flag what =
                          report scope ~id:"S201" ~loc:vb.pvb_loc
                            (Printf.sprintf
                               "top-level binding %s holds mutable state (%s) in a \
                                library that pool domains may execute; make it \
                                domain-local, or annotate the file with \
                                [@@@nldl.domain_safe \"mechanism\"]"
                               (binding_name vb) what)
                        in
                        match (peel vb.pvb_expr).pexp_desc with
                        | Pexp_apply (f, _)
                          when List.mem (ident_path f) mutable_ctors ->
                            flag (String.concat "." (ident_path f))
                        | Pexp_array (_ :: _) -> flag "array literal"
                        | _ -> ())
                    vbs
              | _ -> ());
              it.structure_item self si);
        });
  }

(* --- H: hygiene --------------------------------------------------------- *)

let h301 =
  {
    id = "H301";
    group = "H";
    synopsis = "no Obj.magic";
    extend =
      on_expr (fun scope e ->
          if ident_path e = [ "Obj"; "magic" ] then
            report scope ~id:"H301" ~loc:e.pexp_loc
              "Obj.magic defeats the type system; find a typed encoding");
  }

let is_float_lit e =
  match (peel e).pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

let h302 =
  {
    id = "H302";
    group = "H";
    synopsis = "no polymorphic =/<>/compare against float literals in lib/";
    extend =
      on_expr (fun scope e ->
          if scope.in_lib then
            match e.pexp_desc with
            | Pexp_apply (f, args) -> (
                match ident_path f with
                | [ "=" ] | [ "<>" ] | [ "compare" ] ->
                    if List.exists (fun (_, a) -> is_float_lit a) args then
                      report scope ~id:"H302" ~loc:e.pexp_loc
                        "polymorphic comparison against a float literal; use \
                         Float.equal/Float.compare or an epsilon test (NaN and \
                         -0. bite), or [@nldl.allow \"H302\"] an intentional \
                         exact test"
                | _ -> ())
            | _ -> ());
  }

let h303 =
  {
    id = "H303";
    group = "H";
    synopsis = "no Array.concat/Array.append in lib/kernels hot paths";
    extend =
      on_expr (fun scope e ->
          if scope.in_kernels then
            match ident_path e with
            | [ "Array"; "concat" ] | [ "Array"; "append" ] ->
                report scope ~id:"H303" ~loc:e.pexp_loc
                  (Printf.sprintf
                     "%s allocates and copies per call; kernels must scatter into \
                      preallocated arrays (see Kernels.Scatter)"
                     (String.concat "." (ident_path e)))
            | _ -> ());
  }

(* Innermost body of a (possibly curried) function expression. *)
let rec fun_body e =
  match (peel e).pexp_desc with
  | Pexp_fun (_, _, _, body) -> fun_body body
  | _ -> peel e

(* Syntactic "this expression builds a float array": Array.make/init
   with a float-literal element, Array.create_float, or a float-literal
   array literal.  Non-literal elements escape the net — this is a
   linter, not a type checker — but every boxed-matrix constructor the
   flat-buffer overhaul removed matched one of these shapes. *)
let constructs_float_array e =
  match (peel e).pexp_desc with
  | Pexp_apply (f, args) -> (
      match ident_path f with
      | [ "Array"; "create_float" ] -> true
      | [ "Array"; "make" ] -> (
          match List.rev args with (_, init) :: _ -> is_float_lit init | [] -> false)
      | [ "Array"; "init" ] -> (
          match List.rev args with
          | (_, f_arg) :: _ -> is_float_lit (fun_body f_arg)
          | [] -> false)
      | _ -> false)
  | Pexp_array (e0 :: _) -> is_float_lit e0
  | _ -> false

let rec returns_tuple e =
  match (peel e).pexp_desc with
  | Pexp_tuple _ -> true
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) -> returns_tuple body
  | Pexp_ifthenelse (_, t, Some f) -> returns_tuple t || returns_tuple f
  | _ -> false

let name_contains name sub =
  let n = String.length name and m = String.length sub in
  let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
  go 0

let h305 =
  {
    id = "H305";
    group = "H";
    synopsis =
      "no boxed float-matrix construction or tuple-returning slice helpers in \
       lib/kernels and lib/linalg";
    extend =
      (fun scope it ->
        let it =
          on_expr
            (fun scope e ->
              if scope.in_hot then
                match e.pexp_desc with
                | Pexp_apply (f, args) -> (
                    let flag what =
                      report scope ~id:"H305" ~loc:e.pexp_loc
                        (Printf.sprintf
                           "%s builds a row-per-row boxed float matrix (a pointer chase \
                            per row and a header per allocation); use a flat row-major \
                            Kernels.Fbuf, or [@nldl.allow \"H305\"] a cold path"
                           what)
                    in
                    match ident_path f with
                    | [ "Array"; "make_matrix" ] -> (
                        match List.rev args with
                        | (_, init) :: _ when is_float_lit init -> flag "Array.make_matrix"
                        | _ -> ())
                    | [ "Array"; "make" ] -> (
                        match List.rev args with
                        | (_, elt) :: _ when constructs_float_array elt ->
                            flag "nested Array.make"
                        | _ -> ())
                    | [ "Array"; "init" ] -> (
                        match List.rev args with
                        | (_, f_arg) :: _ when constructs_float_array (fun_body f_arg) ->
                            flag "nested Array.init"
                        | _ -> ())
                    | _ -> ())
                | _ -> ())
            scope it
        in
        {
          it with
          structure_item =
            (fun self si ->
              (match si.pstr_desc with
              | Pstr_value (_, vbs) when scope.in_hot && scope.expr_depth = 0 ->
                  List.iter
                    (fun vb ->
                      if not (List.mem "H305" (Attrs.allows vb.pvb_attributes)) then begin
                        let name = binding_name vb in
                        if
                          (name_contains name "bounds" || name_contains name "slice")
                          && (match (peel vb.pvb_expr).pexp_desc with
                             | Pexp_fun _ -> returns_tuple (fun_body vb.pvb_expr)
                             | _ -> false)
                        then
                          report scope ~id:"H305" ~loc:vb.pvb_loc
                            (Printf.sprintf
                               "slice helper %s returns a tuple, allocating a block per \
                                query on the hot path; return ints from separate \
                                accessors or fill a mutable slice record (see \
                                Kernels.Scatter.slice)"
                               name)
                      end)
                    vbs
              | _ -> ());
              it.structure_item self si);
        });
  }

(* H307 guards the Obs funnel: the instrumented hot paths (lib/des,
   lib/mapreduce, lib/exec) report timing and distributions through
   Obs.Hist/Obs.Metrics, so they must not grow private clock externals
   (which would bypass both Obs.Clock and D002's name list) or ad-hoc
   histogram arrays.  lib/sortlib is deliberately out of scope: its
   histogram_sort uses counting arrays as the algorithm, not as
   instrumentation. *)
let file_starts_with prefix scope =
  String.length scope.file >= String.length prefix
  && String.sub scope.file 0 (String.length prefix) = prefix

let clockish_prim prim =
  name_contains prim "clock"
  || name_contains prim "gettimeofday"
  || name_contains prim "time"

let array_ctor e =
  match (peel e).pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | [ "Array"; "make" ] | [ "Array"; "init" ] | [ "Array"; "create_float" ] ->
          Some (String.concat "." (ident_path f))
      | _ -> None)
  | _ -> None

let h307 =
  {
    id = "H307";
    group = "H";
    synopsis =
      "no private clock externals in lib/ outside lib/obs, and no ad-hoc \
       histogram arrays in instrumented hot paths (lib/des, lib/mapreduce, \
       lib/exec); record through Obs.Clock and Obs.Hist";
    extend =
      (fun scope it ->
        let it =
          {
            it with
            value_description =
              (fun self vd ->
                (if
                   vd.pval_prim <> []
                   && scope.in_lib
                   && (not (file_starts_with "lib/obs/" scope))
                   && List.exists clockish_prim vd.pval_prim
                 then
                   report scope ~id:"H307" ~loc:vd.pval_loc
                     (Printf.sprintf
                        "external %s binds a clock primitive (%s) outside lib/obs; \
                         time through Obs.Clock so reads stay monotonic, mockable \
                         and visible to the D002 gate"
                        vd.pval_name.txt
                        (String.concat ", " vd.pval_prim)));
                it.value_description self vd);
          }
        in
        {
          it with
          value_binding =
            (fun self vb ->
              (if scope.in_instrumented then
                 let name = binding_name vb in
                 if name_contains name "hist" then
                   match array_ctor vb.pvb_expr with
                   | Some ctor ->
                       report scope ~id:"H307" ~loc:vb.pvb_loc
                         (Printf.sprintf
                            "binding %s builds an ad-hoc histogram array (%s) in an \
                             instrumented hot path; record into a registered \
                             Obs.Hist (sharded, zero-alloc, exported with \
                             quantiles), or [@nldl.allow \"H307\"] a non-telemetry \
                             array"
                            name ctor)
                   | None -> ());
              it.value_binding self vb);
        });
  }

(* H308 guards the response-schema funnel: every JSON an experiment
   emits must go through the Api.Response envelope (built by
   Experiments.Registry.write_json), so the CLI --json surface, the serve
   daemon and the bench artifact stay one schema.  Hand-rolled
   Obs.Json.Obj/List construction in lib/experiments bypasses that;
   registry.ml itself is the one sanctioned builder. *)
let h308 =
  {
    id = "H308";
    group = "H";
    synopsis =
      "no hand-rolled response JSON (Obs.Json.Obj/List construction) in \
       lib/experiments outside registry.ml; return a Report.t and let the \
       Api.Response envelope serialize";
    extend =
      (fun scope it ->
        {
          it with
          expr =
            (fun self e ->
              (if scope.in_experiments && scope.file <> "lib/experiments/registry.ml"
               then
                 match e.pexp_desc with
                 | Pexp_construct ({ txt; _ }, _) -> (
                     match (try Longident.flatten txt with _ -> []) with
                     | [ "Obs"; "Json"; ("Obj" | "List") ] | [ "Json"; ("Obj" | "List") ]
                       ->
                         report scope ~id:"H308" ~loc:e.pexp_loc
                           (Printf.sprintf
                              "%s hand-rolls response JSON in lib/experiments; return \
                               a Report.t and let the Api.Response envelope \
                               serialize it (one schema for --json, nldl serve and \
                               the bench artifact), or [@nldl.allow \"H308\"] a \
                               non-response payload"
                              (String.concat "." (Longident.flatten txt)))
                     | _ -> ())
                 | _ -> ());
              it.expr self e);
        });
  }

let all = [ d001; d002; u101; s201; h301; h302; h303; h305; h307; h308 ]

let catalog =
  List.map (fun r -> (r.id, r.synopsis)) all
  @ [
      ("U102", "nldl.unsafe_zone/domain_safe annotation must carry a reason string");
      ("U103", "stale [@@@nldl.unsafe_zone]: file has no unsafe access left");
      ("H304", "every lib/ .ml needs an .mli interface");
      ("X001", "unknown nldl.* attribute (typo would silently disable a gate)");
      ("E000", "file failed to parse");
      ( "R401",
        "unprotected write to module-level state reachable from a pool domain" );
      ( "R402",
        "unsafe access in a zone with no dominating bounds check or valid \
         nldl.bounds_validated pointer" );
      ("R403", "blocking syscall inside a pool-escaping closure");
    ]

(* --- scoping wrapper ---------------------------------------------------- *)

let scoping scope it =
  let expr self e =
    let allows = Attrs.allows e.pexp_attributes in
    scope.allow_stack <- allows :: scope.allow_stack;
    scope.expr_depth <- scope.expr_depth + 1;
    it.expr self e;
    scope.expr_depth <- scope.expr_depth - 1;
    scope.allow_stack <- List.tl scope.allow_stack
  in
  let module_binding self mb =
    let allows = Attrs.allows mb.pmb_attributes in
    scope.allow_stack <- allows :: scope.allow_stack;
    it.module_binding self mb;
    scope.allow_stack <- List.tl scope.allow_stack
  in
  let value_binding self vb =
    let allows = Attrs.allows vb.pvb_attributes in
    scope.allow_stack <- allows :: scope.allow_stack;
    it.value_binding self vb;
    scope.allow_stack <- List.tl scope.allow_stack
  in
  { it with expr; module_binding; value_binding }
