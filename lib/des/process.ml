open Effect
open Effect.Deep

type t = { engine : Engine.t }

type resource = {
  world : t;
  capacity : int;
  mutable available : int;
  waiters : (unit -> unit) Queue.t;
}

type _ Effect.t += Wait : float -> unit Effect.t
type _ Effect.t += Acquire : resource -> unit Effect.t

exception Outside_process

let create () = { engine = Engine.create () }
let now t = Engine.now t.engine

(* Each process body runs under this deep handler, which also covers
   every later resumption of the process: blocking points capture the
   continuation and hand it to the engine (Wait) or to the resource's
   waiter queue (Acquire). *)
let spawn t body =
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait delay ->
              Some
                (fun (k : (a, _) continuation) ->
                  Engine.schedule_after t.engine ~delay (fun _ -> continue k ()))
          | Acquire resource ->
              Some
                (fun (k : (a, _) continuation) ->
                  if resource.available > 0 then begin
                    resource.available <- resource.available - 1;
                    continue k ()
                  end
                  else Queue.add (fun () -> continue k ()) resource.waiters)
          | _ -> None);
    }

let wait delay =
  if delay < 0. then invalid_arg "Process.wait: negative delay";
  try perform (Wait delay) with Unhandled _ -> raise Outside_process

let resource world ~capacity =
  if capacity <= 0 then invalid_arg "Process.resource: capacity must be > 0";
  { world; capacity; available = capacity; waiters = Queue.create () }

let acquire resource =
  try perform (Acquire resource) with Unhandled _ -> raise Outside_process

let release resource =
  match Queue.take_opt resource.waiters with
  | Some wake ->
      (* Hand the unit straight to the first waiter, resuming it at the
         current simulated time. *)
      Engine.schedule resource.world.engine
        ~time:(Engine.now resource.world.engine)
        (fun _ -> wake ())
  | None ->
      if resource.available >= resource.capacity then
        invalid_arg "Process.release: resource already at capacity";
      resource.available <- resource.available + 1

let with_resource resource f =
  acquire resource;
  Fun.protect ~finally:(fun () -> release resource) f

let run ?until t = Engine.run ?until t.engine
