(* What every workload shares: the run result, output checks, set-up
   repetition, scratch directories and the trace-derived layer
   figures. *)

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let fdiv a b = if b = 0. then 0. else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)

(* The measured window follows a warm-up (load running, nothing
   recorded) and is cut into [slices] equal slices.  Each end-to-end
   figure is computed per slice and the run reports the median slice,
   so one transient disturbance moves one slice, not the result. *)
let slices = 20
let warmup_s seconds = Float.min 1.0 (0.25 *. seconds)

type window = { w_start : int; w_slice : int  (** ns *) }

let window ~start ~seconds =
  { w_start = start; w_slice = int_of_float (seconds *. 1e9) / slices }

let w_end w = w.w_start + (slices * w.w_slice)

(* Slice of an instant; -1 outside the window. *)
let slice_of w t =
  if t < w.w_start then -1
  else
    let i = (t - w.w_start) / w.w_slice in
    if i >= slices then -1 else i

type result = {
  setups : float list;  (** seconds, one per set-up made in the run *)
  slice_s : float;
  ops : int array;  (** non-failed ops completed in each slice *)
  lat : Stat.samples array;  (** per-op latency of each slice, ns *)
  cpu : float array;  (** process user+sys CPU seconds of each slice *)
  attempted : int;  (** whole window *)
  failed : int;  (** shed, [Error], [Closed] or unanswered at window end *)
  completed : int;
  achieved : float option;
      (** paced and open loops: completed / (last reply - window start),
          ops/s *)
  rtt_ns : float;  (** mean send-to-reply time of a completed op *)
  unreclaimed : Stat.gauge;  (** retired-not-freed blocks *)
  unreclaimed_slices : float array;  (** its mean in each slice *)
  layers : (string * float) list;  (** traced run only *)
}

(* Sample [g] and [gauges] through the [n] slices from slice [first]
   on, reading the process CPU clock at every slice boundary.  Returns
   the CPU seconds and the mean of [g] in each of those slices.  Called
   when slice [first] opens. *)
let measure ?(first = 0) ?(n = slices) w (g : Stat.gauge) gauges =
  let cpu = Array.make n 0. and means = Array.make n 0. in
  let prev = ref (Stat.cpu_s ()) in
  for i = 0 to n - 1 do
    let s0 = g.g_sum and n0 = g.g_n in
    Stat.sample_until ~deadline:(w.w_start + ((first + i + 1) * w.w_slice)) (g :: gauges);
    let c = Stat.cpu_s () in
    cpu.(i) <- c -. !prev;
    means.(i) <- idiv (g.g_sum - s0) (g.g_n - n0);
    prev := c
  done;
  (cpu, means)

(* Sleep until the monotonic instant [t]. *)
let sleep_until t =
  let d = t - Stat.now_ns () in
  if d > 0 then Unix.sleepf (float_of_int d /. 1e9)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

(* Build the workload [reps] times, timing each build, and keep the
   last: the others are torn down at once.  The median of the timings
   is the run's [setup_s].  Each build starts on a collected heap, so
   it does not pay for the garbage of the one before. *)
let repeat_setup ~reps ~setup ~teardown =
  let rec go i acc =
    Gc.full_major ();
    let t0 = Stat.now_ns () in
    let s = setup i in
    let dt = float_of_int (Stat.now_ns () - t0) /. 1e9 in
    if i = reps - 1 then (List.rev (dt :: acc), s)
    else begin
      teardown s;
      go (i + 1) (dt :: acc)
    end
  in
  go 0 []

let mean_dur (t : Trace.total) = idiv t.dur_ns t.n
let mean_self (t : Trace.total) = idiv t.self_ns t.n

(* Work the service path did in traced calls that no other traced call
   encloses: SMR brackets and retires, map operations, WAL syncs. *)
let service_work_ns () =
  List.fold_left
    (fun acc n -> acc + (Trace.total n).root_ns)
    0
    Trace.[ h_enter; h_leave; h_trim; h_retire; d_read; d_write; wal_sync ]

(* The layer figures every workload reads the same way off the trace.
   Layers a workload does not reach read 0. *)
let trace_layers () =
  let tot = Trace.total in
  let svc = Stat.sorted (Trace.durations Trace.shard_service) in
  let sync = Stat.sorted (Trace.durations Trace.wal_sync) in
  let recs = Trace.counter Trace.c_wal_records in
  let svc_mean = Stat.mean { Stat.a = svc; n = Array.length svc } in
  let served = Array.length svc in
  [
    ("hyaline.enter_ns", mean_dur (tot Trace.h_enter));
    ("hyaline.leave_ns", mean_dur (tot Trace.h_leave));
    ("hyaline.retire_ns", mean_dur (tot Trace.h_retire));
    ("dstruct.read_ns", mean_self (tot Trace.d_read));
    ("dstruct.write_ns", mean_self (tot Trace.d_write));
    ("shard.service_us_mean", svc_mean /. 1e3);
    ("shard.service_us_p99", Stat.us (Stat.pct svc 0.99));
    ( "shard.wait_us_mean",
      if served = 0 then 0.
      else (svc_mean -. idiv (service_work_ns ()) served) /. 1e3 );
    ("wal.sync_us_p50", Stat.us (Stat.pct sync 0.5));
    ("wal.sync_us_p99", Stat.us (Stat.pct sync 0.99));
    ("wal.records_per_sync", idiv recs (Array.length sync));
    ("wal.bytes_per_write", idiv (Trace.counter Trace.c_wal_bytes) recs);
  ]

(* Reclamation ratios over the window from two stats snapshots. *)
let free_per_retire (a : Smr.Stats.snapshot) (b : Smr.Stats.snapshot) =
  idiv (b.frees - a.frees) (b.retires - a.retires)

let sum_snapshots l =
  List.fold_left
    (fun (acc : Smr.Stats.snapshot) s ->
      let (s : Smr.Stats.snapshot) = Smr.Stats.snapshot s in
      { allocs = acc.allocs + s.allocs; retires = acc.retires + s.retires; frees = acc.frees + s.frees })
    { Smr.Stats.allocs = 0; retires = 0; frees = 0 }
    l

(* A shard service's reclamation and mailbox state over the window:
   racy gauges sampled during it and counters read at its two ends. *)
let data_unreclaimed (svc : Service.Shard.t) () =
  List.fold_left (fun a s -> a + Smr.Stats.unreclaimed s) 0 (svc.data_stats ())

let ctl_unreclaimed (svc : Service.Shard.t) () = Smr.Stats.unreclaimed (svc.control_stats ())

type svc_counts = { stats : Smr.Stats.snapshot; sheds : int; b_sum : int; b_n : int }

let svc_counts (svc : Service.Shard.t) =
  {
    stats = sum_snapshots (svc.data_stats ());
    sheds = svc.sheds ();
    b_sum = Obs.Hist.sum svc.batch_hist;
    b_n = Obs.Hist.count svc.batch_hist;
  }

type svc_probe = {
  svc : Service.Shard.t;
  g_data : Stat.gauge;
  g_ctl : Stat.gauge;
  g_live : Stat.gauge;
  g_depth : Stat.gauge;
  mutable c0 : svc_counts;
  mutable c1 : svc_counts;
}

let svc_probe (svc : Service.Shard.t) =
  let c = svc_counts svc in
  {
    svc;
    g_data = Stat.gauge (data_unreclaimed svc);
    g_ctl = Stat.gauge (ctl_unreclaimed svc);
    g_live = Stat.gauge (Wrap.map_gauge "mpool_live");
    g_depth =
      Stat.gauge (fun () ->
          let s = ref 0 in
          for i = 0 to svc.nshards - 1 do
            s := !s + svc.shard_depth i
          done;
          !s);
    c0 = c;
    c1 = c;
  }

let svc_gauges p = [ p.g_data; p.g_ctl; p.g_live; p.g_depth ]
let svc_open p = p.c0 <- svc_counts p.svc
let svc_close p = p.c1 <- svc_counts p.svc
let svc_runs p = p.c1.b_n - p.c0.b_n

let svc_layers p =
  [
    ("hyaline.free_per_retire", free_per_retire p.c0.stats p.c1.stats);
    ("hyaline.unreclaimed_avg", Stat.gauge_mean p.g_data);
    ("hyaline.unreclaimed_max", float_of_int p.g_data.g_max);
    ("mpool.live_max", float_of_int p.g_live.g_max);
    ("shard.batch_mean", idiv (p.c1.b_sum - p.c0.b_sum) (svc_runs p));
    ("shard.sheds", float_of_int (p.c1.sheds - p.c0.sheds));
    ("mailbox.depth_max", float_of_int p.g_depth.g_max);
    ("mailbox.ctl_unreclaimed_max", float_of_int p.g_ctl.g_max);
  ]
