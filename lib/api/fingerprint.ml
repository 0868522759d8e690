(* The key is a fixed text header naming the kind, the communication
   model and the workload, then every float as its 8 raw bytes in a
   layout the header determines: the power (for [Power] workloads),
   bandwidth, latency, then the total, or the load count and the loads,
   and last the sorted speeds. *)

let header (r : Request.t) =
  let kind =
    match r.kind with
    | Request.Schedule -> "schedule"
    | Request.Ratio -> "ratio"
    | Request.Plan -> "plan"
    | Request.Multi_load _ -> "multi_load"
  and comm = match r.comm_model with Dlt.Schedule.Parallel -> "par" | Dlt.Schedule.One_port -> "1p"
  and workload =
    match r.workload with
    | Dlt.Cost_model.Linear -> "lin"
    | Dlt.Cost_model.N_log_n -> "nlogn"
    | Dlt.Cost_model.Power _ -> "pow"
  in
  String.concat "|" [ "v2"; kind; comm; workload; "" ]

(* Validated speeds are positive and finite, so [<] is a total order
   on them.  Up to 64 of them (every perfbench platform) an insertion
   sort takes about half the radix kernel's time; beyond, the kernel
   keeps a long platform from costing quadratic time. *)
let sort (a : float array) =
  let n = Array.length a in
  if n > 64 then Kernels.Seg_sort.sort_floats a ~lo:0 ~len:n
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let speeds (r : Request.t) =
  match r.platform with
  | Request.Speeds s ->
      let s = Array.copy s in
      sort s;
      s
  | Request.Profile _ -> Platform.Star.speeds (Request.star r)

let put b pos f = Bytes.set_int64_le b pos (Int64.bits_of_float f)

let put_all b pos a =
  for i = 0 to Array.length a - 1 do
    put b (pos + (8 * i)) a.(i)
  done;
  pos + (8 * Array.length a)

let of_request (r : Request.t) =
  let header = header r and speeds = speeds r in
  let loads = match r.kind with Request.Multi_load l -> l | _ -> [||] in
  let power = match r.workload with Dlt.Cost_model.Power alpha -> [| alpha |] | _ -> [||] in
  let h = String.length header in
  let b = Bytes.create (h + (8 * (Array.length power + 3 + Array.length loads + Array.length speeds))) in
  Bytes.blit_string header 0 b 0 h;
  let pos = put_all b h power in
  put b pos r.bandwidth;
  put b (pos + 8) r.latency;
  let pos =
    match r.kind with
    | Request.Multi_load _ ->
        Bytes.set_int64_le b (pos + 16) (Int64.of_int (Array.length loads));
        put_all b (pos + 24) loads
    | Request.Schedule | Request.Ratio | Request.Plan ->
        put b (pos + 16) r.total;
        pos + 24
  in
  ignore (put_all b pos speeds : int);
  Bytes.to_string b
