(* The kvd / SMR-core end-to-end benchmark.  See README.md.

     main.exe --workload ds-churn|kv-read-shm|kv-write-wal
              --seed N --seconds S --trace 0|1
              --run-dir DIR [--commit ID]
     main.exe --selftest --run-dir DIR

   DIR is the run's scratch directory (sockets, FIFOs, arena files,
   WAL directories); the caller removes it.  Span logs of traced runs
   go to kvbench/_out.

   Prints a run record and every metric with its unit and sample count
   on lines starting with "#", then one JSON object as the last line.
   Exits 1, printing no JSON, on a wrong reply, a lost acknowledged
   write or any other failed output check. *)

type workload = {
  name : string;
  params : (string * string) list;
  stream : seed:int -> client:int -> n:int -> string list;
  clients : int;
  run : seed:int -> seconds:float -> traced:bool -> dir:string -> Common.result;
}

let workloads =
  [
    {
      name = "ds-churn";
      params = Ds_churn.params;
      stream = Ds_churn.stream;
      clients = Ds_churn.workers;
      run = Ds_churn.run;
    };
    {
      name = "kv-read-shm";
      params = Kv_read_shm.params;
      stream = Kv_read_shm.stream;
      clients = Gen.Shm.clients;
      run = Kv_read_shm.run;
    };
    {
      name = "kv-write-wal";
      params = Kv_write_wal.params;
      stream = Kv_write_wal.stream;
      clients = Gen.Wal.clients;
      run = Kv_write_wal.run;
    };
  ]

(* Per-layer metrics of the traced run, in BENCHMARK.json order.  A
   layer the workload does not reach reads 0. *)
let per_layer =
  [
    ("hyaline.enter_ns", "ns"); ("hyaline.leave_ns", "ns");
    ("hyaline.retire_ns", "ns"); ("hyaline.free_per_retire", "ratio");
    ("hyaline.unreclaimed_avg", "blocks"); ("hyaline.unreclaimed_max", "blocks");
    ("dstruct.read_ns", "ns"); ("dstruct.write_ns", "ns");
    ("mpool.live_max", "blocks"); ("shard.service_us_mean", "us"); ("shard.service_us_p99", "us");
    ("shard.wait_us_mean", "us"); ("shard.batch_mean", "requests"); ("shard.sheds", "count");
    ("mailbox.depth_max", "requests"); ("mailbox.ctl_unreclaimed_max", "blocks");
    ("wal.sync_us_p50", "us"); ("wal.sync_us_p99", "us"); ("wal.records_per_sync", "records");
    ("wal.bytes_per_write", "bytes"); ("conn.rtt_us_mean", "us"); ("conn.self_us_mean", "us");
    ("shm.rtt_us_mean", "us"); ("shm.self_us_mean", "us"); ("shm.inline_get_ns", "ns");
    ("shm.inline_frac", "ratio"); ("shmalloc.unreclaimed_avg", "blocks");
    ("shmalloc.free_per_retire", "ratio"); ("shmalloc.copy_fallback_frac", "ratio");
    ("gen.late_p99_us", "us"); ("trace.overhead_frac", "ratio"); ("budget.residual_us", "us");
  ]

let out_dir = "kvbench/_out"

let json_num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let json_line ~attempted ~failed metrics =
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          metrics))

(* Median over the window's slices of a per-slice figure. *)
let slice_median f = Stat.median_float (List.init Common.slices f)

let throughput (r : Common.result) =
  match r.achieved with
  | Some rate -> rate
  | None -> slice_median (fun i -> float_of_int r.ops.(i) /. r.slice_s)

(* The end-to-end metrics of an untraced run: each the median of its
   per-slice values, with the sample counts behind it and the
   whole-window figure beside it.  [true] marks the metrics listed in
   BENCHMARK.json (and so in the JSON line).  The others are printed
   only: the latency percentiles and CPU per op, too unsteady between
   runs on a shared 2-core host to hold any bound (see README.md), and
   the capacity estimate. *)
let end_to_end w (r : Common.result) =
  let sorted = Array.map Stat.sorted r.lat in
  let all = Stat.sorted (Stat.merge (Array.to_list r.lat)) in
  let n = Array.length all in
  let counts =
    String.concat "/" (Array.to_list (Array.map (fun s -> string_of_int (Array.length s)) sorted))
  in
  let med = Printf.sprintf "median of %d slices of %.2f s" Common.slices r.slice_s in
  let pct name q =
    ( name,
      slice_median (fun i -> Stat.us (Stat.pct sorted.(i) q)),
      "us",
      Printf.sprintf "%s, n=%s; whole window %.3f us, n=%d, %d beyond" med counts
        (Stat.us (Stat.pct all q)) n
        (n - int_of_float (Float.ceil (q *. float_of_int n))) )
  in
  let cpu_total = Array.fold_left ( +. ) 0. r.cpu in
  [
    ( true,
      ( "setup_s",
        Stat.median_float r.setups,
        "s",
        Printf.sprintf "median of %d set-ups: %s" (List.length r.setups)
          (String.concat " " (List.map (Printf.sprintf "%.4f") r.setups)) ) );
    ( true,
      ( "throughput_ops_s",
        throughput r,
        "ops/s",
        match r.achieved with
        | Some _ ->
            Printf.sprintf "achieved rate: %d ops from the first due time to the last reply"
              r.completed
        | None -> Printf.sprintf "%s; %d ops in the window" med (Array.fold_left ( + ) 0 r.ops) ) );
    (false, pct "latency_p50_us" 0.5);
    (false, pct "latency_p90_us" 0.9);
    (false, pct "latency_p99_us" 0.99);
    (false, pct "latency_p999_us" 0.999);
    ( false,
      ( "cpu_us_per_op",
        slice_median (fun i -> Common.fdiv (r.cpu.(i) *. 1e6) (float_of_int r.ops.(i))),
        "us",
        Printf.sprintf "%s; %.3f cpu-s in the window" med cpu_total ) );
    ( false,
      ( "capacity_est_ops_s",
        Common.fdiv (float_of_int w.clients *. 1e9) r.rtt_ns,
        "ops/s",
        Printf.sprintf
          "%d clients / mean send-to-reply time %.3f us: what the same clients would complete \
           back to back at this round trip"
          w.clients (r.rtt_ns /. 1e3) ) );
    ( true,
      ( "unreclaimed_avg",
        Stat.gauge_mean r.unreclaimed,
        "blocks",
        Printf.sprintf "n=%d samples, max %d" r.unreclaimed.g_n r.unreclaimed.g_max ) );
  ]

let print_record ~w ~seed ~seconds ~trace ~commit =
  Printf.printf "# run: workload=%s seed=%d seconds=%g trace=%d\n" w.name seed seconds trace;
  Printf.printf "# host: nproc=%d ocaml=%s commit=%s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version commit;
  List.iter (fun (k, v) -> Printf.printf "# param %s = %s\n" k v) w.params

let print_counts (r : Common.result) =
  Printf.printf "# ops attempted=%d completed=%d failed=%d failed_frac=%.6f\n" r.attempted
    r.completed r.failed
    (Common.idiv r.failed r.attempted)

(* The whole host's CPU time so far from /proc/stat: (all, busy,
   steal) in clock ticks; [None] where there is no such file. *)
let host_cpu () =
  match
    In_channel.with_open_text "/proc/stat" In_channel.input_line
    |> Option.map (fun l -> List.filter_map int_of_string_opt (String.split_on_char ' ' l))
  with
  | Some (user :: nice :: sys :: idle :: iowait :: irq :: softirq :: steal :: _) ->
      let all = user + nice + sys + idle + iowait + irq + softirq + steal in
      Some (all, all - idle - iowait, steal)
  | _ | (exception Sys_error _) -> None

(* How busy the host's CPUs were during the run, and how much time the
   hypervisor gave to other guests: high steal marks a run measured on
   a contended host. *)
let print_host_load before =
  match (before, host_cpu ()) with
  | Some (a0, b0, s0), Some (a1, b1, s1) when a1 > a0 ->
      let pct x0 x1 = 100. *. float_of_int (x1 - x0) /. float_of_int (a1 - a0) in
      Printf.printf "# host cpu during the run: busy %.1f%%, steal %.1f%%\n" (pct b0 b1) (pct s0 s1)
  | _ -> ()

let run_once ~w ~seed ~seconds ~trace ~dir =
  let load0 = host_cpu () in
  if trace = 0 then begin
    let r = w.run ~seed ~seconds ~traced:false ~dir in
    print_counts r;
    print_host_load load0;
    let m = end_to_end w r in
    List.iter
      (fun (gated, (n, v, u, c)) ->
        Printf.printf "# %s %s = %s %s (%s)\n"
          (if gated then "e2e" else "ungated")
          n (json_num v) u c)
      m;
    Printf.printf "# slices ops/s: %s\n"
      (String.concat " "
         (Array.to_list (Array.map (fun o -> Printf.sprintf "%.0f" (float_of_int o /. r.slice_s)) r.ops)));
    Printf.printf "# slices p50 us: %s\n"
      (String.concat " "
         (Array.to_list
            (Array.map (fun l -> Printf.sprintf "%.1f" (Stat.us (Stat.pct (Stat.sorted l) 0.5))) r.lat)));
    Printf.printf "# slices unreclaimed: %s\n"
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") r.unreclaimed_slices)));
    json_line ~attempted:r.attempted ~failed:r.failed
      (List.filter_map (fun (gated, (n, v, u, _)) -> if gated then Some (n, v, u) else None) m)
  end
  else begin
    (* Half the window untraced, half traced: the difference is the
       tracing overhead. *)
    let half = seconds /. 2. in
    let r0 = w.run ~seed ~seconds:half ~traced:false ~dir in
    let r1 = w.run ~seed ~seconds:half ~traced:true ~dir in
    print_counts r1;
    print_host_load load0;
    let thr0 = throughput r0 and thr1 = throughput r1 in
    let layers =
      ("trace.overhead_frac", Common.fdiv (thr0 -. thr1) thr0) :: r1.layers
    in
    let m =
      List.map
        (fun (n, u) -> (n, Option.value ~default:0. (List.assoc_opt n layers), u))
        per_layer
    in
    (* Under a fixed offered rate the throughputs match; the overhead
       shows in latency instead. *)
    let p50 (r : Common.result) =
      slice_median (fun i -> Stat.us (Stat.pct (Stat.sorted r.lat.(i)) 0.5))
    in
    Printf.printf "# traced throughput %.1f ops/s vs untraced %.1f; p50 %.3f us vs %.3f us\n" thr1
      thr0 (p50 r1) (p50 r0);
    List.iter (fun (n, v, u) -> Printf.printf "# layer %s = %s %s\n" n (json_num v) u) m;
    (try
       let path = Filename.concat out_dir (Printf.sprintf "trace-%s.tsv" w.name) in
       Trace.write path;
       Printf.printf "# spans written to %s\n" path
     with Sys_error e -> Printf.printf "# span log not written: %s\n" e);
    json_line ~attempted:(r0.attempted + r1.attempted) ~failed:(r0.failed + r1.failed) m
  end

(* Two generations from one seed are identical, another seed differs,
   and a short run of every workload passes its output checks, traced
   and untraced. *)
let selftest ~dir =
  List.iter
    (fun w ->
      for client = 0 to w.clients - 1 do
        let a = w.stream ~seed:11 ~client ~n:3000 and b = w.stream ~seed:11 ~client ~n:3000 in
        if a <> b then Common.fail "%s: client %d stream not reproducible" w.name client;
        if a = w.stream ~seed:12 ~client ~n:3000 then
          Common.fail "%s: client %d stream ignores the seed" w.name client
      done;
      List.iter
        (fun traced ->
          let r = w.run ~seed:5 ~seconds:0.3 ~traced ~dir in
          if r.completed = 0 then Common.fail "%s: no operation completed" w.name;
          Printf.printf "selftest %s%s: %d ops checked\n%!" w.name
            (if traced then " (traced)" else "")
            r.completed)
        [ false; true ])
    workloads;
  print_endline "selftest ok"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let run_dir = ref "" and commit = ref "unknown" in
  let self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--run-dir", Arg.Set_string run_dir, "DIR scratch directory, removed by the caller");
      ("--commit", Arg.Set_string commit, "ID recorded in the run record");
      ("--selftest", Arg.Set self, " generator and output-check self-test");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad a)) "main.exe --workload W --seed N --seconds S --trace 0|1";
  Service.Conn.ignore_sigpipe ();
  let dir = !run_dir in
  let code =
    try
      if dir = "" then raise (Arg.Bad "--run-dir is required");
      (try Unix.mkdir (Filename.dirname dir) 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      ignore (Common.fresh_dir dir);
      if !self then selftest ~dir
      else begin
        let w =
          match List.find_opt (fun w -> w.name = !workload) workloads with
          | Some w -> w
          | None ->
              raise
                (Arg.Bad
                   (Printf.sprintf "unknown workload %S (known: %s)" !workload
                      (String.concat ", " (List.map (fun w -> w.name) workloads))))
        in
        if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
        if !seconds <= 0. then raise (Arg.Bad "--seconds must be positive");
        (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        print_record ~w ~seed:!seed ~seconds:!seconds ~trace:!trace ~commit:!commit;
        run_once ~w ~seed:!seed ~seconds:!seconds ~trace:!trace ~dir
      end;
      0
    with
    | Common.Check_failed msg ->
        Printf.eprintf "kvbench: OUTPUT CHECK FAILED: %s\n%!" msg;
        1
    | Arg.Bad msg ->
        Printf.eprintf "kvbench: %s\n%!" msg;
        2
  in
  exit code
