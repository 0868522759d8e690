(* Reusable k-way merge state: a manual binary min-heap over (head
   value, run index) pairs kept in two parallel flat arrays, plus
   per-run read cursors.  Allocated once per sort, so the merge phase
   itself allocates nothing. *)
type merger = {
  heap_val : float array;  (* heap slot -> current head value of the run *)
  heap_run : int array;  (* heap slot -> run index *)
  cursor : int array;  (* run -> next absolute index to read in [src] *)
  stop : int array;  (* run -> exclusive end of the run in [src] *)
}

let merger ~k =
  if k < 1 then invalid_arg "Merge.merger: k must be >= 1";
  {
    heap_val = Array.make k 0.;
    heap_run = Array.make k 0;
    cursor = Array.make k 0;
    stop = Array.make k 0;
  }

(* The [float array] annotation is load-bearing: without it inference
   generalizes [hv] to ['a array] (nothing in the body pins the element
   type) and every [<] becomes a polymorphic compare over boxed reads —
   ~32 minor words per merged key at p = 16 instead of zero. *)
let sift_down (hv : float array) hr size i0 =
  let i = ref i0 and live = ref true in
  while !live do
    let l = (2 * !i) + 1 in
    if l >= size then live := false
    else begin
      let r = l + 1 in
      let child = if r < size && hv.(r) < hv.(l) then r else l in
      if hv.(child) < hv.(!i) then begin
        let v = hv.(child) and run = hr.(child) in
        hv.(child) <- hv.(!i);
        hr.(child) <- hr.(!i);
        hv.(!i) <- v;
        hr.(!i) <- run;
        i := child
      end
      else live := false
    end
  done

let k_way_strided mg ~src ~bounds ~runs ~stride ~off ~dst ~dst_lo =
  if runs > Array.length mg.cursor then invalid_arg "Merge.k_way_strided: merger too small";
  let hv = mg.heap_val and hr = mg.heap_run in
  let cursor = mg.cursor and stop = mg.stop in
  let size = ref 0 in
  for run = 0 to runs - 1 do
    let lo = bounds.((run * stride) + off) and hi = bounds.((run * stride) + off + 1) in
    cursor.(run) <- lo;
    stop.(run) <- hi;
    if hi > lo then begin
      hv.(!size) <- src.(lo);
      hr.(!size) <- run;
      incr size
    end
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift_down hv hr !size i
  done;
  let out = ref dst_lo in
  while !size > 0 do
    let run = hr.(0) in
    dst.(!out) <- hv.(0);
    incr out;
    let next = cursor.(run) + 1 in
    cursor.(run) <- next;
    if next < stop.(run) then begin
      hv.(0) <- src.(next);
      sift_down hv hr !size 0
    end
    else begin
      decr size;
      hv.(0) <- hv.(!size);
      hr.(0) <- hr.(!size);
      if !size > 1 then sift_down hv hr !size 0
    end
  done;
  !out - dst_lo
