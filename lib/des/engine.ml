(* The closure-facing engine, backed by the unboxed [Event_heap].

   Handlers cannot live in the heap itself (its payloads are ints), so
   they sit in a boxed slab: [schedule] claims a slot — reusing one off
   the free stack, or extending the high-water mark — stores the
   closure there, and pushes the slot index as the event payload.
   [step] pops the index, clears the slot back to [noop] (releasing the
   closure to the GC and the slot to the free stack), then runs the
   handler.  Timestamps never round-trip through a boxed field: [now]
   lives in a 1-slot [float array], which OCaml stores unboxed, instead
   of a [mutable now : float] record field, which would allocate a
   fresh box on every event in this mixed int/float record. *)

type t = {
  heap : Event_heap.t;
  mutable handlers : (t -> unit) array;  (* slot -> pending handler, or noop *)
  mutable free : int array;  (* stack of released slots below [hwm] *)
  mutable free_top : int;
  mutable hwm : int;  (* slots [0, hwm) have been claimed at least once *)
  now_cell : float array;  (* 1 slot; unboxed mutable current time *)
}

exception Causality of { now : float; requested : float }

let noop (_ : t) = ()

let create () =
  {
    heap = Event_heap.create ~initial_capacity:16 ();
    handlers = Array.make 16 noop;
    free = Array.make 16 0;
    free_top = 0;
    hwm = 0;
    now_cell = [| 0. |];
  }

let now t = t.now_cell.(0)

let claim_slot t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.free.(t.free_top)
  end
  else begin
    if t.hwm = Array.length t.handlers then begin
      let cap' = 2 * Array.length t.handlers in
      let handlers' = Array.make cap' noop in
      Array.blit t.handlers 0 handlers' 0 t.hwm;
      let free' = Array.make cap' 0 in
      Array.blit t.free 0 free' 0 t.free_top;
      t.handlers <- handlers';
      t.free <- free'
    end;
    let slot = t.hwm in
    t.hwm <- slot + 1;
    slot
  end

let schedule t ~time handler =
  let now = t.now_cell.(0) in
  if time < now then raise (Causality { now; requested = time });
  let slot = claim_slot t in
  t.handlers.(slot) <- handler;
  Event_heap.push t.heap ~priority:time slot

let schedule_after t ~delay handler =
  if delay < 0. then
    raise (Causality { now = t.now_cell.(0); requested = t.now_cell.(0) +. delay });
  schedule t ~time:(t.now_cell.(0) +. delay) handler

let step t =
  if Event_heap.is_empty t.heap then false
  else begin
    let time = Event_heap.min_priority t.heap in
    let slot = Event_heap.pop t.heap in
    let handler = t.handlers.(slot) in
    t.handlers.(slot) <- noop;
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1;
    t.now_cell.(0) <- time;
    handler t;
    true
  end

(* Instrumentation for [run]: registered once, recorded only when the
   obs layer is enabled.  The gate is hoisted to one boolean read per
   [run] call, and the pending-depth histogram is sampled 1-in-64
   steps, so the disabled loop is byte-for-byte the old one and the
   enabled loop pays a few domain-local stores per sample. *)
let m_events = Obs.Metrics.counter "des.events"
let g_heap_hwm = Obs.Metrics.gauge "des.heap_hwm"
let h_pending = Obs.Hist.create "des.pending_depth"

let depth_sample_mask = 63

let run ?until t =
  let obs_on = Obs.Hist.enabled () || Obs.Metrics.enabled () in
  let steps = ref 0 in
  let pending_shard = Obs.Hist.shard h_pending in
  (match until with
  | None ->
      while step t do
        incr steps;
        if obs_on && !steps land depth_sample_mask = 0 then
          Obs.Hist.record_into pending_shard (Event_heap.size t.heap)
      done
  | Some horizon ->
      let continue = ref true in
      while !continue do
        if Event_heap.is_empty t.heap || Event_heap.min_priority t.heap > horizon
        then continue := false
        else begin
          ignore (step t);
          incr steps;
          if obs_on && !steps land depth_sample_mask = 0 then
            Obs.Hist.record_into pending_shard (Event_heap.size t.heap)
        end
      done);
  if obs_on then begin
    Obs.Metrics.add m_events !steps;
    Obs.Metrics.set_gauge g_heap_hwm (float_of_int (Event_heap.high_water t.heap))
  end
