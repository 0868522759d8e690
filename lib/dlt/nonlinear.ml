(* The exact [r = 0.] / [t <> !hi] tests below are the root finders'
   early exits and loop guards, not tolerance comparisons. *)
[@@@nldl.allow "H302"]

module Processor = Platform.Processor
module Star = Platform.Star
module Kahan = Numerics.Kahan

(* A Newton step shorter than this fraction of its iterate ends a solve.
   The step before it was ~1e-7 relative, so quadratic convergence has
   already put the iterate at the root; the slack is above the rounding
   noise of one residual evaluation. *)
let share_tol = 16. *. epsilon_float
let makespan_tol = 1e-14

(* Makespan iterates whose Newton step is longer than this fraction of
   the iterate are coarse: each share takes one Newton step, not a
   converged solve.  The step after the first shorter one is ~1e-10,
   where the shares a coarse sweep leaves are exact to rounding. *)
let coarse_tol = 1e-5
let max_steps = 100

(* A share no smaller than the root of [c·n + w·work(n) = budget]: the
   load the worker could only receive, or only compute, in [budget]
   ([work n >= n] for [n >= 2] under [N_log_n]). *)
let[@inline] share_bound cost ~c ~w ~budget =
  let compute_only =
    match cost with
    | Cost_model.Linear -> budget /. w
    | Cost_model.Power a -> (budget /. w) ** (1. /. a)
    | Cost_model.N_log_n -> Float.max 2. (budget /. w)
  in
  Float.min (budget /. c) compute_only

(* Per-solve Newton state, indexed in serving order: each worker's [c]
   and [w]; its share, which carries over between makespan iterates as
   a warm start; the slope [c + w·work'(n)] of its finish time at that
   share; its rate [dn/dT] at the current makespan iterate; the
   compute-only makespan behind the shares [lower_bound] seeded, until
   the first sweep uses them (0 otherwise); and the makespan
   evaluations and share steps spent so far. *)
type state = {
  c : float array;
  w : float array;
  share : float array;
  slope : float array;
  rate : float array;
  mutable seed_time : float;
  mutable evals : int;
  mutable steps : int;
}

let state c w =
  let p = Array.length c in
  {
    c;
    w;
    share = Array.make p 0.;
    slope = Array.make p 0.;
    rate = Array.make p 0.;
    seed_time = 0.;
    evals = 0;
    steps = 0;
  }

let m_evals = Obs.Metrics.counter "nonlinear.makespan_evals"
let m_steps = Obs.Metrics.counter "nonlinear.share_steps"

(* Once per solve, so the counters cost nothing per step. *)
let count st =
  Obs.Metrics.add m_evals st.evals;
  Obs.Metrics.add m_steps st.steps

(* Newton on [c·n + w·work(n) = budget > 0] for worker [k] of [st], from
   its previous share, or from [share_bound] when it has none.  The
   finish time is increasing and convex in [n], so a step from any
   point lands at or above the root, and from above the iterates fall
   monotonically onto it.  A start far from the root, one whose step
   more than doubles it or whose finish time is past twice the budget,
   brings in the bound (one [**], paid only then): a start below the
   root can overshoot far, and one far above it creeps down.  The
   bracket [lo, hi] turns a step that leaves it into a bisection.
   Unless [exact], one step is taken, capped at [hi], so the share stays
   at or above the root. *)
let solve_share ~exact st k cost ~budget =
  let c = st.c.(k) and w = st.w.(k) in
  let start = st.share.(k) in
  let lo = ref 0. and hi = ref infinity and bounded = ref false in
  let n = ref start and finished = ref false in
  if not (start > 0.) then begin
    hi := share_bound cost ~c ~w ~budget;
    bounded := true;
    n := !hi;
    finished := not (!hi > 0.)
  end;
  let slope = ref c and steps = ref 0 in
  while not !finished do
    let x = !n in
    let finish, dfinish =
      match cost with
      | Cost_model.Power a ->
          (* One [**] gives both terms: q = n^(a-1), work = q·n, work' = a·q;
             none for a first step from a seed, where w·n^a = seed_time. *)
          let q =
            if !steps = 0 && st.seed_time > 0. then st.seed_time /. (w *. x) else x ** (a -. 1.)
          in
          ((c *. x) +. (w *. (q *. x)), c +. (w *. (a *. q)))
      | Cost_model.Linear | Cost_model.N_log_n ->
          ( (c *. x) +. (w *. Cost_model.work cost x),
            c +. (w *. Cost_model.work_derivative cost x) )
    in
    let r = finish -. budget in
    slope := dfinish;
    incr steps;
    if r = 0. then finished := true
    else begin
      let next = x -. (r /. dfinish) in
      if r > 0. then hi := x else lo := x;
      if (not !bounded) && (next > 2. *. x || r > budget) then begin
        hi := Float.min !hi (share_bound cost ~c ~w ~budget);
        bounded := true
      end;
      if not exact then begin
        n := Float.min next !hi;
        finished := true
      end
      else if Float.abs (next -. x) <= share_tol *. x then begin
        n := next;
        finished := true
      end
      else begin
        n :=
          if next > !lo && next < !hi then next
          else if r > 0. && !hi < x then !hi (* the bound, below a far start *)
          else !lo +. (0.5 *. (!hi -. !lo));
        finished := !steps >= max_steps
      end
    end
  done;
  st.steps <- st.steps + !steps;
  st.share.(k) <- !n;
  st.slope.(k) <- !slope

let worker_share proc cost ~offset ~deadline =
  let budget = deadline -. offset -. proc.Processor.latency in
  if budget <= 0. then 0.
  else begin
    let st = state [| Processor.c proc |] [| Processor.w proc |] in
    solve_share ~exact:true st 0 cost ~budget;
    st.share.(0)
  end

(* One makespan iterate [t]: every share and rate at [t] into [st], and
   the residual [F(t) = Σ n_i(t) - total] with its derivative; unless
   [exact], each share is one Newton step, at or above its root.  Under
   [One_port] worker [k] starts receiving at [offset_k], so
   [dn_k/dt = (1 - d offset_k/dt) / slope_k], and each served worker
   pushes the offset by its transfer time.  A worker with no budget gets
   0 and costs nothing, unless [charged] (a fixed participant set): then
   every worker pays its latency, and one with no budget gets the
   negative share of the tangent to its finish time at 0,
   [budget / (c + w·work'(0))], so every share grows with [t] and [F]
   has one root. *)
let evaluate ~charged ~exact comm_model procs cost ~total st t =
  st.evals <- st.evals + 1;
  let offset = ref 0. and doffset = ref 0. and dsum = ref 0. in
  let sum = Kahan.create () in
  for k = 0 to Array.length procs - 1 do
    let proc = procs.(k) in
    let budget = t -. !offset -. proc.Processor.latency in
    if budget > 0. then solve_share ~exact st k cost ~budget
    else if charged then begin
      st.slope.(k) <- st.c.(k) +. (st.w.(k) *. Cost_model.work_derivative cost 0.);
      st.share.(k) <- budget /. st.slope.(k)
    end
    else st.share.(k) <- 0.;
    let n = st.share.(k) in
    if n > 0. || charged then begin
      let dn = (1. -. !doffset) /. st.slope.(k) in
      st.rate.(k) <- dn;
      dsum := !dsum +. dn;
      match comm_model with
      | Schedule.Parallel -> ()
      | Schedule.One_port ->
          let fetch = Processor.transfer_time proc ~data:n in
          offset := !offset +. if charged then proc.latency +. (st.c.(k) *. n) else fetch;
          doffset := !doffset +. (st.c.(k) *. dn)
    end
    else st.rate.(k) <- 0.;
    Kahan.add sum n
  done;
  st.seed_time <- 0.;
  (Kahan.total sum -. total, !dsum)

(* Lower bound on the makespan over [procs]: every busy worker spends at
   least its latency, and the load cannot arrive faster than all links
   together, nor (for [n^alpha]) be computed faster than the
   compute-only equal finish [t = (total / Σ r_i)^alpha],
   [r_i = s_i^(1/alpha)].  With [seed], that equal finish's shares
   [n_i = r_i·total / Σ r_i] become the warm starts in [seed]: each
   finishes its compute at [t], so the first sweep calls no [**]. *)
let lower_bound ?seed procs cost ~total =
  let latency = Array.fold_left (fun m p -> Float.min m p.Processor.latency) infinity procs in
  let communication =
    (* A plain sum: compensation turns infinite bandwidths into NaN. *)
    total /. Array.fold_left (fun s p -> s +. p.Processor.bandwidth) 0. procs
  in
  let computation =
    match (Cost_model.alpha cost, seed) with
    | Some a, None -> (total /. Kahan.sum_by (fun p -> p.Processor.speed ** (1. /. a)) procs) ** a
    | Some a, Some st ->
        Array.iteri (fun k p -> st.share.(k) <- p.Processor.speed ** (1. /. a)) procs;
        let scale = total /. Kahan.sum st.share in
        for k = 0 to Array.length procs - 1 do
          st.share.(k) <- st.share.(k) *. scale
        done;
        st.seed_time <- scale ** a;
        st.seed_time
    | None, _ -> 0.
  in
  latency +. Float.max communication computation

(* Equal finish over [procs], served in that order: the makespan, with
   the shares left in the returned state. *)
let solve_makespan ~charged comm_model procs cost ~total =
  (* Upper bound: the first-served worker alone absorbs the whole load.
     Not for a charged set, whose negative shares can pull [F] below 0
     there; its [F] never turns down, so no step leaves to the left. *)
  let first = procs.(0) in
  let st = state (Array.map Processor.c procs) (Array.map Processor.w procs) in
  let parallel = match comm_model with Schedule.Parallel -> true | Schedule.One_port -> false in
  (* Under [One_port] the later workers' budgets are far below the
     bound, so the compute-only shares are poor starts there. *)
  let lo = ref (lower_bound ?seed:(if parallel then Some st else None) procs cost ~total)
  and hi =
    ref
      (if charged then infinity
       else
         Processor.transfer_time first ~data:total
         +. Processor.compute_time first ~work:(Cost_model.work cost total))
  in
  let fail what = invalid_arg ("Nonlinear.equal_finish_allocation: " ^ what) in
  (* Newton on F from the lower bound.  F is increasing, so each exact
     evaluation moves one end of [lo, hi], and a step that leaves the
     bracket becomes a bisection.  A bracket that closes before a step
     converges has its root at the upper end (the bound itself, for a
     lone first-served worker) or at a kink where F turns steep (a
     worker whose latency ends there, on a fast link): one more step
     from that end settles it, or shows there is no root.

     Uncharged iterates start coarse, one share step each, until the
     makespan step falls to [coarse_tol]; then exact evaluations finish
     the solve.  A coarse F is at or above the true F, so under
     [Parallel] a coarse [F <= 0] still proves [lo]; under [One_port] a
     large share delays the later ones, so a coarse F moves no end.  A
     step that leaves the bracket, which a coarse F cannot narrow, also
     ends the coarse phase.  After each step every positive share moves
     along its tangent, the warm start for the next iterate. *)
  let carry step =
    for k = 0 to Array.length st.share - 1 do
      let n = st.share.(k) in
      if n > 0. then st.share.(k) <- Float.max 0. (n +. (st.rate.(k) *. step))
    done
  in
  let rec iterate t steps coarse =
    if not (Float.is_finite t) then fail "non-finite makespan";
    let f, df = evaluate ~charged ~exact:(not coarse) comm_model procs cost ~total st t in
    if coarse then (if f <= 0. && parallel then lo := t)
    else if f <= 0. then lo := t
    else hi := t;
    let next = if f = 0. then t else t -. (f /. df) in
    if (not coarse) && Float.abs (next -. t) <= makespan_tol *. t then begin
      (* Carry every share to [next] along its rate, n_i + dn_i/dt·(next - t),
         so that F's last residual goes to the workers that absorb it (a
         worker that starts inside the step has nothing to give back). *)
      let step = next -. t and floor = if charged then neg_infinity else 0. in
      for k = 0 to Array.length st.share - 1 do
        st.share.(k) <- Float.max floor (st.share.(k) +. (st.rate.(k) *. step))
      done;
      next
    end
    else if steps >= max_steps then fail "makespan did not converge"
    else if !hi -. !lo <= makespan_tol *. t then
      if coarse || t <> !hi then go t !hi (steps + 1) false
      else fail "makespan did not converge"
    else if next > !lo && next <= !hi then
      go t next (steps + 1) (coarse && Float.abs (next -. t) > coarse_tol *. t)
    else go t (!lo +. (0.5 *. (!hi -. !lo))) (steps + 1) false
  and go t t' steps coarse =
    carry (t' -. t);
    iterate t' steps coarse
  in
  let t = iterate !lo 1 (not charged) in
  count st;
  (st, t)

(* Participant selection, for [One_port] with latency.  Sets are ranks
   into [procs], in serving order; a solved set is [(set, shares, t)]
   with every member's latency charged. *)
let select procs cost ~total =
  let p = Array.length procs in
  let solve set =
    let sub = Array.map (Array.get procs) set in
    let st, t = solve_makespan ~charged:true Schedule.One_port sub cost ~total in
    (set, st.share, t)
  in
  let without set r = Array.of_list (List.filteri (fun r' _ -> r' <> r) (Array.to_list set)) in
  (* The classical affine start: drop the most negative share, re-solve,
     until none is left. *)
  let rec fit set =
    let ((_, shares, _) as solved) = solve set in
    let worst = ref (-1) in
    Array.iteri
      (fun r n -> if n < 0. && (!worst < 0 || n < shares.(!worst)) then worst := r)
      shares;
    if !worst < 0 || Array.length set = 1 then solved else fit (without set !worst)
  in
  (* The all-workers start: the first root of the uncharged [F], where a
     worker joins once its budget is positive and then delays everyone
     behind it, so [F] falls as well as rises.  Between two changes of
     the busy set, [F] is that set's charged [F].  Walk up: solve the
     busy set; if it is still busy at its root, that is the first root,
     else bisect for the change and go on from just past it.  The first
     worker in serving order to change status is one that joins and
     stays, so a busy set never comes back (the bisection is sound) and
     the sets rise in lexicographic order (the walk ends; the cap only
     bounds its cost). *)
  let probe = state (Array.map Processor.c procs) (Array.map Processor.w procs) in
  let busy t =
    ignore (evaluate ~charged:false ~exact:true Schedule.One_port procs cost ~total probe t);
    Array.of_list (List.filter (fun k -> probe.share.(k) > 0.) (List.init p Fun.id))
  in
  let rec walk t set steps =
    let ((_, _, root) as solved) = solve set in
    if steps >= max_steps * p || busy root = set then solved
    else begin
      let lo = ref t and hi = ref root in
      while !hi -. !lo > makespan_tol *. !hi do
        let mid = !lo +. (0.5 *. (!hi -. !lo)) in
        if busy mid = set then lo := mid else hi := mid
      done;
      walk !hi (busy !hi) (steps + 1)
    end
  in
  (* Removals never bring a worker back, so descend from both starts:
     take the single removal (refitted) that lowers the makespan most,
     while it does so by more than 1e-12 relative. *)
  let lower ((_, _, t) as a) ((_, _, t') as b) = if t' < t -. (1e-12 *. t) then b else a in
  let rec descend ((set, _, _) as current) =
    let removals = if Array.length set > 1 then Array.length set else 0 in
    let candidates = List.init removals (fun r -> fit (without set r)) in
    let least ((_, _, t) as a) ((_, _, t') as b) = if t' < t then b else a in
    let next = lower current (List.fold_left least current candidates) in
    if next == current then current else descend next
  in
  let ((fit_set, _, _) as fitted) = fit (Array.init p Fun.id) in
  let lo = lower_bound procs cost ~total in
  let selected =
    match busy lo with
    | [||] -> descend fitted (* the bound rounded onto the least latency *)
    | start ->
        let ((first_set, _, _) as first) = walk lo start 0 in
        if first_set = fit_set then descend fitted else lower (descend fitted) (descend first)
  in
  count probe;
  selected

let equal_finish_allocation ?order comm_model star cost ~total =
  if total <= 0. then invalid_arg "Nonlinear.equal_finish_allocation: total must be > 0";
  let workers = Star.workers star in
  let p = Array.length workers in
  let order =
    match (comm_model, order) with
    | Schedule.Parallel, _ -> Array.init p Fun.id
    | Schedule.One_port, Some order -> Schedule.check_permutation p order; order
    | Schedule.One_port, None -> Linear.one_port_order star
  in
  let procs = Array.map (fun i -> workers.(i)) order in
  let allocation = Array.make p 0. in
  let t =
    match comm_model with
    | Schedule.One_port when Array.exists (fun w -> w.Processor.latency > 0.) procs ->
        let set, shares, t = select procs cost ~total in
        Array.iteri (fun r k -> allocation.(order.(k)) <- shares.(r)) set;
        t
    | Schedule.Parallel | Schedule.One_port ->
        let st, t = solve_makespan ~charged:false comm_model procs cost ~total in
        Array.iteri (fun k i -> allocation.(i) <- st.share.(k)) order;
        t
  in
  (* Remove the rounding left in Σ n_i by rescaling; the perturbation is
     O(tol) and keeps Σ n_i = total exactly. *)
  let sum = Kahan.sum allocation in
  let allocation =
    if sum > 0. then Array.map (fun n -> n *. total /. sum) allocation else allocation
  in
  (allocation, t)

let quadratic_share proc ~offset ~deadline =
  let c = Processor.c proc and w = Processor.w proc in
  let budget = deadline -. offset -. proc.Processor.latency in
  if budget <= 0. then 0.
  else (-.c +. sqrt ((c *. c) +. (4. *. w *. budget))) /. (2. *. w)

let schedule comm_model star cost ~total =
  let allocation, _ = equal_finish_allocation comm_model star cost ~total in
  match comm_model with
  | Schedule.Parallel -> Schedule.of_allocation comm_model star cost ~allocation
  | Schedule.One_port ->
      Schedule.of_allocation ~order:(Linear.one_port_order star) comm_model star cost
        ~allocation

module For_tests = struct
  let share_step cost ~c ~w ~budget n =
    let st = state [| c |] [| w |] in
    st.share.(0) <- n;
    solve_share ~exact:false st 0 cost ~budget;
    st.share.(0)

  let fixed_set_residual procs cost ~total t =
    let st = state (Array.map Processor.c procs) (Array.map Processor.w procs) in
    fst (evaluate ~charged:true ~exact:true Schedule.One_port procs cost ~total st t)
end
