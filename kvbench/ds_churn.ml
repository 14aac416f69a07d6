(* ds-churn: the SMR core alone.  A Registry hashmap under Hyaline-S,
   two worker domains in a closed loop of 50% insert / 50% delete,
   each operation in its own enter/leave bracket, and one reader
   domain stalled inside a bracket from before the prefill until its
   stall ends (the paper's §2.3 stalled thread).

   The window is measured over [stalls] stalls in a row, each on a
   freshly built map with a fresh stalled reader and the workers'
   streams restarted from the seed, each covering an equal run of the
   window's slices.  A stall that lasts too long
   leaves the flat-backlog state this workload measures: past about 4
   million operations the Hyaline-S backlog climbs without bound (see
   README.md).  At a fifth of a 20 s window plus warm-up, a stall
   holds under 2 million operations at the measured rate. *)

open Workload

let scheme_name = "Hyaline-S"
let structure_name = "hashmap"
let workers = 2
let reader_tid = workers

(* One latency sample per [lat_every] operations keeps the timer off
   most of a sub-microsecond operation. *)
let lat_every = 8

let stalls = 5
let per_stall = Common.slices / stalls

let params =
  [
    ("loop", "closed, 2 worker domains");
    ("scheme", scheme_name);
    ("structure", structure_name);
    ("smr_config", "paper (slots 128, batch_min 64, epoch_freq 150)");
    ("keyspace", string_of_int Gen.Churn.keys);
    ("prefill", string_of_int Gen.Churn.prefill);
    ("mix", "50% insert / 50% delete, uniform keys");
    ("stalled_reader", "1, entered before the prefill");
    ( "stalls",
      Printf.sprintf "%d in a row, %d slices each, each on a fresh map with its own warm-up"
        stalls per_stall );
    ("latency_sampling", Printf.sprintf "1 in %d ops, enter..leave" lat_every);
  ]

let stream ~seed ~client ~n =
  let g = Gen.Churn.create ~seed ~client in
  List.init n (fun _ -> Gen.Churn.to_string (Gen.Churn.next g))

let run ~seed ~seconds ~traced ~dir:_ =
  let scheme = Registry.find_scheme scheme_name in
  let structure = Registry.find_structure structure_name in
  let scheme, structure =
    if traced then (Wrap.scheme scheme, Wrap.structure structure) else (scheme, structure)
  in
  let module M = (val Registry.make_map structure scheme) in
  let cfg = Smr.Config.paper ~nthreads:(workers + 1) in
  let prefill = Gen.Churn.prefill_keys ~seed in
  let mu = Mutex.create () and cv = Condition.create () in
  let setup () =
    let m = M.create ~cfg () in
    let entered = ref false and release = ref false in
    let reader =
      Domain.spawn (fun () ->
          M.enter m ~tid:reader_tid;
          ignore (M.get m ~tid:reader_tid prefill.(0));
          Mutex.lock mu;
          entered := true;
          Condition.broadcast cv;
          while not !release do
            Condition.wait cv mu
          done;
          Mutex.unlock mu;
          M.leave m ~tid:reader_tid)
    in
    Mutex.lock mu;
    while not !entered do
      Condition.wait cv mu
    done;
    Mutex.unlock mu;
    Array.iter
      (fun k ->
        M.enter m ~tid:0;
        if not (M.insert m ~tid:0 k k) then Common.fail "prefill: duplicate key %d" k;
        M.leave m ~tid:0)
      prefill;
    (m, release, reader)
  in
  (* Release the reader and flush every tid: a quiescent Hyaline-S
     map must then hold no retired-but-unfreed block. *)
  let drain (m, release, reader) =
    Mutex.lock mu;
    release := true;
    Condition.broadcast cv;
    Mutex.unlock mu;
    Domain.join reader;
    for tid = 0 to workers do
      M.enter m ~tid;
      M.flush m ~tid;
      M.leave m ~tid
    done;
    Smr.Stats.unreclaimed (M.stats m)
  in
  (* The map of the stall being measured, for the gauges. *)
  let measured = ref None in
  let unreclaimed =
    Stat.gauge (fun () ->
        match !measured with Some m -> Smr.Stats.unreclaimed (M.stats m) | None -> 0)
  in
  let live = Stat.gauge (Wrap.map_gauge "mpool_live") in
  let w = Common.window ~start:0 ~seconds in
  let warmup = int_of_float (Common.warmup_s (seconds /. float_of_int stalls) *. 1e9) in
  let stall e =
    Wrap.reset_maps ();
    (* Time the set-up on a collected heap, as [Common.repeat_setup]
       does. *)
    Gc.full_major ();
    let t_setup = Stat.now_ns () in
    let ((m, _, _) as st) = setup () in
    let setup_s = float_of_int (Stat.now_ns () - t_setup) /. 1e9 in
    measured := Some m;
    (* Collect set-up garbage now rather than in the window. *)
    Gc.full_major ();
    let first = e * per_stall in
    let start = Stat.now_ns () + warmup in
    (* The window shifted so that this stall's first slice opens at
       [start]; [slot] maps an instant to this stall's slices. *)
    let w = { w with Common.w_start = start - (first * w.w_slice) } in
    let slot t =
      let i = Common.slice_of w t - first in
      if i >= 0 && i < per_stall then i else -1
    in
    let stop = Atomic.make false in
    (* Each worker counts its operations into the slice its last timed
       operation fell in (-1 = warm-up or past the window). *)
    let worker wk () =
      let g = Gen.Churn.create ~seed ~client:wk in
      let lat = Array.init per_stall (fun _ -> Stat.samples ~cap:(1 lsl 16) ()) in
      let ops = Array.make per_stall 0 in
      let n = ref 0 and net = ref 0 and cur = ref (-1) in
      while not (Atomic.get stop) do
        let op = Gen.Churn.next g in
        let k = op lsr 1 in
        let timed = !n mod lat_every = 0 in
        let t0 = if timed then Stat.now_ns () else 0 in
        M.enter m ~tid:wk;
        let ins = op land 1 = 1 in
        let ok = if ins then M.insert m ~tid:wk k k else M.remove m ~tid:wk k in
        M.leave m ~tid:wk;
        if timed then begin
          let t1 = Stat.now_ns () in
          cur := slot t1;
          if !cur >= 0 then Stat.add lat.(!cur) (t1 - t0)
        end;
        if !cur >= 0 then ops.(!cur) <- ops.(!cur) + 1;
        if ok then if ins then incr net else decr net;
        incr n
      done;
      (ops, !net, lat, !n)
    in
    let doms = List.init workers (fun wk -> Domain.spawn (worker wk)) in
    Common.sleep_until start;
    let stats0 = Smr.Stats.snapshot (M.stats m) in
    if traced then begin
      if e = 0 then Trace.reset ();
      Atomic.set Trace.on true
    end;
    let cpu, means =
      Common.measure ~first ~n:per_stall w unreclaimed (if traced then [ live ] else [])
    in
    Atomic.set Trace.on false;
    let stats1 = Smr.Stats.snapshot (M.stats m) in
    Atomic.set stop true;
    let outs = List.map Domain.join doms in
    measured := None;
    let ops =
      Array.init per_stall (fun i -> List.fold_left (fun a (o, _, _, _) -> a + o.(i)) 0 outs)
    in
    let net = List.fold_left (fun a (_, d, _, _) -> a + d) 0 outs in
    let lat =
      Array.init per_stall (fun i -> Stat.merge (List.map (fun (_, _, l, _) -> l.(i)) outs))
    in
    (* Output checks: reclamation after the stall, structure
       invariants, every binding k -> k, and the size the successful
       operations imply. *)
    let left = drain st in
    if left <> 0 then Common.fail "ds-churn: %d blocks unreclaimed after drain" left;
    M.check m;
    let bindings = M.to_sorted_list m in
    List.iter (fun (k, v) -> if k <> v then Common.fail "ds-churn: key %d bound to %d" k v) bindings;
    let expect = Gen.Churn.prefill + net in
    if List.length bindings <> expect then
      Common.fail "ds-churn: %d bindings, successful ops imply %d" (List.length bindings) expect;
    let stall_ops = List.fold_left (fun a (_, _, _, n) -> a + n) 0 outs in
    ( setup_s,
      ops,
      lat,
      cpu,
      means,
      (stats1.retires - stats0.retires, stats1.frees - stats0.frees),
      stall_ops )
  in
  let by_stall = List.init stalls stall in
  let cat f = Array.concat (List.map f by_stall) in
  let ops = cat (fun (_, o, _, _, _, _, _) -> o) in
  let lat = cat (fun (_, _, l, _, _, _, _) -> l) in
  let total = Array.fold_left ( + ) 0 ops in
  let all = Stat.merge (Array.to_list lat) in
  Printf.printf "# ds-churn operations per stall, warm-up included: %s\n"
    (String.concat " " (List.map (fun (_, _, _, _, _, _, n) -> string_of_int n) by_stall));
  let layers =
    if not traced then []
    else begin
      let roots =
        List.fold_left
          (fun a n -> a + (Trace.total n).root_ns)
          0
          Trace.[ h_enter; h_leave; d_read; d_write ]
      in
      let retires, frees =
        List.fold_left (fun (r, f) (_, _, _, _, _, (r', f'), _) -> (r + r', f + f')) (0, 0) by_stall
      in
      Common.trace_layers ()
      @ [
          ("hyaline.free_per_retire", Common.idiv frees retires);
          ("hyaline.unreclaimed_avg", Stat.gauge_mean unreclaimed);
          ("hyaline.unreclaimed_max", float_of_int unreclaimed.g_max);
          ("mpool.live_max", float_of_int live.g_max);
          ("budget.residual_us", (Stat.mean all -. Common.idiv roots total) /. 1e3);
        ]
    end
  in
  {
    Common.setups = List.map (fun (s, _, _, _, _, _, _) -> s) by_stall;
    slice_s = float_of_int w.w_slice /. 1e9;
    ops;
    lat;
    cpu = cat (fun (_, _, _, c, _, _, _) -> c);
    attempted = total;
    failed = 0;
    completed = total;
    achieved = None;
    rtt_ns = Stat.mean all;
    unreclaimed;
    unreclaimed_slices = cat (fun (_, _, _, _, u, _, _) -> u);
    layers;
  }
