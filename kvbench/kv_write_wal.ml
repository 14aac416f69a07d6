(* kv-write-wal: every op over a unix socket, every write through the
   WAL.  An open loop at one fixed offered rate over two connections
   to [Conn.serve_unix] (default backend) in front of a
   [Replica.Primary] on [Store.fs] in a fresh directory: 2 shards,
   hyaline, group commit with one fsync per drained run.  Mix
   Loadgen.write_heavy over 100k keys, 50k prefilled. *)

open Workload
module Codec = Service.Codec

let scheme_name = "hyaline"
let structure_name = "hashmap"
let shards = 2
let clients = Gen.Wal.clients

(* Offered rate, ops/s over both connections: about a quarter of the
   highest rate the unmodified service sustained on a 2-core host
   without a growing backlog.  At half of it the p50 sat near the knee
   and moved by 40% with the host's load (see README.md, "Choosing the
   rates"). *)
let rate = 1000.

(* Replies still missing this long after the window closes count as
   unanswered. *)
let drain_s = 5.

(* Requests in flight per connection before the generator counts due
   requests as failed instead of sending them (far below what the
   socket buffers hold, so neither side ever blocks writing). *)
let max_outstanding = 2048

let params =
  [
    ("loop", Printf.sprintf "open, fixed schedule, %d unix-socket connections" clients);
    ("offered_rate_ops_s", Printf.sprintf "%g" rate);
    ("scheme", scheme_name);
    ("structure", structure_name);
    ("shards", string_of_int shards);
    ("transport", "Conn.serve_unix, default backend (threaded)");
    ("store", "Replica.Store.fs in a fresh directory");
    ("flush_policy", "group commit: one fsync per drained run, acks after it");
    ("keyspace", Printf.sprintf "%d uniform, %d prefilled" Gen.Wal.keys (Gen.Wal.keys / 2));
    ("mix", "Loadgen.write_heavy: 40 GET / 30 PUT / 20 DEL / 10 CAS");
  ]

let stream ~seed ~client ~n =
  let g = Gen.Wal.create ~seed ~client in
  List.init n (fun _ -> Codec.request_to_string (Gen.Wal.next g))

let cfg = { Service.Shard.default_config with shards; clients }

type state = {
  d : string;
  store_dir : string;
  p : Replica.Primary.t;
  srv : Service.Conn.server;
  fds : Unix.file_descr array;
  mutable stopped : bool;
}

let stop st =
  if not st.stopped then begin
    st.stopped <- true;
    Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) st.fds;
    Service.Conn.shutdown st.srv;
    Replica.Primary.stop st.p
  end

let rec read_exact fd b off len =
  if len > 0 then
    match Unix.read fd b off len with
    | 0 -> raise Service.Conn.Closed
    | n -> read_exact fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd b off len

(* One reply frame, read exactly: nothing past it is consumed, so
   [select] keeps telling the truth about the next one. *)
let read_reply fd hdr =
  read_exact fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  let b = Bytes.create len in
  read_exact fd b 0 len;
  Codec.reply_of_payload b

(* Check a reply against the client's model of its own stripe and
   apply it.  [false] = failed (shed, error); a wrong answer raises. *)
let check model req reply =
  let bad () =
    Common.fail "kv-write-wal: %s answered %s" (Codec.request_to_string req)
      (Codec.reply_to_string reply)
  in
  match (req, reply) with
  | _, (Codec.Shed | Codec.Error _) -> false
  | Codec.Get k, Codec.Value v -> if Hashtbl.find_opt model k <> Some v then bad () else true
  | Codec.Get k, Codec.Not_found -> if Hashtbl.mem model k then bad () else true
  | Codec.Put { key; value }, (Codec.Created | Codec.Updated) ->
      if Hashtbl.mem model key <> (reply = Codec.Updated) then bad ();
      Hashtbl.replace model key value;
      true
  | Codec.Del k, Codec.Deleted ->
      if not (Hashtbl.mem model k) then bad ();
      Hashtbl.remove model k;
      true
  | Codec.Del k, Codec.Not_found -> if Hashtbl.mem model k then bad () else true
  | Codec.Cas { key; expected; desired }, Codec.Cas_ok ->
      if Hashtbl.find_opt model key <> Some expected then bad ();
      Hashtbl.replace model key desired;
      true
  | Codec.Cas { key; expected; _ }, Codec.Cas_fail -> (
      match Hashtbl.find_opt model key with
      | Some v when v <> expected -> true
      | _ -> bad ())
  | Codec.Cas { key; _ }, Codec.Not_found -> if Hashtbl.mem model key then bad () else true
  | _ -> bad ()

(* The state a restarted primary comes back with: a fresh
   [Replica.Primary] boots from the store, replaying each shard's WAL,
   and is swept. *)
let recover ~structure ~scheme store_dir =
  let store = Replica.Store.fs ~dir:store_dir in
  let h = Hashtbl.create (2 * Gen.Wal.keys) in
  let p, _ = Replica.Primary.create ~structure ~scheme cfg ~store () in
  Fun.protect ~finally:(fun () -> Replica.Primary.stop p) (fun () ->
      for shard = 0 to shards - 1 do
        List.iter (fun (k, v) -> Hashtbl.replace h k v) (Replica.Primary.sweep p ~shard)
      done);
  h

let run ~seed ~seconds ~traced ~dir =
  let scheme = Registry.find_scheme scheme_name in
  let structure = Registry.find_structure structure_name in
  let t_scheme, t_structure =
    if traced then (Wrap.scheme scheme, Wrap.structure structure) else (scheme, structure)
  in
  Wrap.reset_maps ();
  (* [Codec.crc32] builds its table in a shared [lazy].  The two shard
     consumers force it at once on their first WAL appends, and in
     OCaml 5 the loser raises [CamlinternalLazy.Undefined]: its
     consumer takes that for a failed durability hook and dies
     silently, and the prefill then waits forever (see README.md).
     Forcing the table here, before any consumer runs, keeps that
     start-up race out of the measurement. *)
  ignore (Codec.crc32 "" ~pos:0 ~len:0);
  let prefill = Array.init clients (fun client -> Gen.Wal.prefill ~seed ~client) in
  let setup i =
    let d = Common.fresh_dir (Filename.concat dir (Printf.sprintf "wal%d" i)) in
    let store_dir = Filename.concat d "store" in
    let store = Replica.Store.fs ~dir:store_dir in
    let store = if traced then Wrap.store store else store in
    let p, _ =
      Replica.Primary.create ~structure:t_structure ~scheme:t_scheme cfg ~store ()
    in
    let n = Gen.Wal.stripe / 2 in
    Service.Shard.pipeline p.svc ~tid:0 ~n:(clients * n) (fun i ->
        let key, value = prefill.(i mod clients).(i / clients) in
        Codec.Put { key; value });
    let svc = if traced then Wrap.shard p.svc else p.svc in
    let path = Filename.concat d "kv.sock" in
    let srv = Service.Conn.serve_unix svc ~path ~ext:(Replica.Primary.handle p) () in
    let fds = Array.init clients (fun _ -> Service.Conn.connect_unix ~path) in
    { d; store_dir; p; srv; fds; stopped = false }
  in
  let setups, st =
    Common.repeat_setup ~reps:5 ~setup ~teardown:(fun s ->
        stop s;
        Common.rm_rf s.d;
        Wrap.reset_maps ())
  in
  Fun.protect ~finally:(fun () ->
      stop st;
      Common.rm_rf st.d)
  @@ fun () ->
  let svc = st.p.svc in
  let probe = Common.svc_probe svc in
  let unreclaimed =
    Stat.gauge (fun () -> Common.data_unreclaimed svc () + Common.ctl_unreclaimed svc ())
  in
  let models =
    Array.map
      (fun pf ->
        let h = Hashtbl.create (2 * Gen.Wal.stripe) in
        Array.iter (fun (k, v) -> Hashtbl.replace h k v) pf;
        h)
      prefill
  in
  (* Collect set-up garbage now rather than in the window. *)
  Gc.full_major ();
  (* The schedule: request [i] of connection [c] is due at
     [t0 + (i * clients + c) / rate].  Requests due before the window
     opens are the warm-up: sent and checked, not counted. *)
  let interval = 1e9 /. rate in
  let t0 = Stat.now_ns () + 2_000_000 in
  let w = Common.window ~start:(t0 + int_of_float (Common.warmup_s seconds *. 1e9)) ~seconds in
  let deadline = Common.w_end w in
  let conn c () =
    let fd = st.fds.(c) and model = models.(c) in
    let g = Gen.Wal.create ~seed ~client:c in
    let lat = Array.init Common.slices (fun _ -> Stat.samples ~cap:(1 lsl 12) ()) in
    let ops = Array.make Common.slices 0 in
    let late = Stat.samples ~cap:(1 lsl 14) () in
    let rtt = ref 0 and last = ref 0 in
    let pending = Queue.create () in
    let buf = Buffer.create 64 and hdr = Bytes.create 4 in
    let sent = ref 0 and attempted = ref 0 and ok = ref 0 and failed = ref 0 in
    let due i = t0 + int_of_float (float_of_int ((i * clients) + c) *. interval) in
    let drain_deadline = deadline + int_of_float (drain_s *. 1e9) in
    let fin = ref false in
    let receive () =
      let reply = read_reply fd hdr in
      let t = Stat.now_ns () in
      let req, due_at, sent_at = Queue.pop pending in
      let good = check model req reply in
      if due_at >= w.w_start then
        if not good then incr failed
        else begin
          incr ok;
          last := t;
          (match Common.slice_of w t with -1 -> () | i -> ops.(i) <- ops.(i) + 1);
          Stat.add lat.(Common.slice_of w due_at) (t - due_at);
          rtt := !rtt + (t - sent_at);
          if Atomic.get Trace.on then
            Trace.record Trace.client_call ~t0:sent_at ~t1:t ~rid:(Codec.key_of_request req)
        end
    in
    let readable timeout_ns =
      match Unix.select [ fd ] [] [] (float_of_int (max 0 timeout_ns) /. 1e9) with
      | [], _, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    while not !fin do
      let now = Stat.now_ns () in
      let next = due !sent in
      let sending = next < deadline in
      if sending && next <= now then begin
        (* Take every reply already here first: the server answers in
           order and stops reading while its replies back up. *)
        while (not (Queue.is_empty pending)) && readable 0 do
          receive ()
        done;
        let req = Gen.Wal.next g in
        let counted = next >= w.w_start in
        incr sent;
        if counted then incr attempted;
        if Queue.length pending >= max_outstanding then begin
          (* Overload: the request is due but the connection already
             holds a full backlog; it counts as failed, unsent. *)
          if counted then incr failed
        end
        else begin
          Codec.encode_request buf req;
          Service.Conn.write_frame fd buf;
          let t = Stat.now_ns () in
          if counted then Stat.add late (t - next);
          Queue.push (req, next, t) pending
        end
      end
      else if not (Queue.is_empty pending) then begin
        if now >= drain_deadline then fin := true
        else if readable ((if sending then next else drain_deadline) - now) then receive ()
      end
      else if sending then Common.sleep_until next
      else fin := true
    done;
    (* Keys with an unanswered request have an unknown durable state. *)
    let unknown = Queue.fold (fun acc (r, _, _) -> Codec.key_of_request r :: acc) [] pending in
    ( !attempted,
      !ok,
      !failed + Queue.length pending,
      (ops, lat),
      late,
      !rtt,
      unknown,
      !last )
  in
  let doms = List.init clients (fun c -> Domain.spawn (conn c)) in
  Common.sleep_until w.w_start;
  Common.svc_open probe;
  if traced then begin
    Trace.reset ();
    Atomic.set Trace.on true
  end;
  let cpu, unreclaimed_slices =
    Common.measure w unreclaimed (if traced then Common.svc_gauges probe else [])
  in
  Atomic.set Trace.on false;
  Common.svc_close probe;
  let outs = List.map Domain.join doms in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
  let attempted = sum (fun (a, _, _, _, _, _, _, _) -> a) in
  let completed = sum (fun (_, o, _, _, _, _, _, _) -> o) in
  let failed = sum (fun (_, _, f, _, _, _, _, _) -> f) in
  let rtt_total = sum (fun (_, _, _, _, _, r, _, _) -> r) in
  let ops =
    Array.init Common.slices (fun i -> sum (fun (_, _, _, (o, _), _, _, _, _) -> o.(i)))
  in
  let lat =
    Array.init Common.slices (fun i ->
        Stat.merge (List.map (fun (_, _, _, (_, l), _, _, _, _) -> l.(i)) outs))
  in
  let late = Stat.merge (List.map (fun (_, _, _, _, l, _, _, _) -> l) outs) in
  let last = List.fold_left (fun a (_, _, _, _, _, _, _, l) -> max a l) w.w_start outs in
  let unknown = List.concat_map (fun (_, _, _, _, _, _, u, _) -> u) outs in
  let rtt_mean = Common.idiv rtt_total completed in
  let layers =
    if not traced then []
    else begin
      let service = Trace.total Trace.shard_service in
      let sync = Trace.total Trace.wal_sync in
      (* Map and SMR work amortized per request; the sync blocks every
         request of a run that synced. *)
      let work =
        Common.idiv (Common.service_work_ns () - sync.root_ns) service.n
        +. (Common.mean_dur sync *. Float.min 1. (Common.idiv sync.n (Common.svc_runs probe)))
      in
      Common.trace_layers () @ Common.svc_layers probe
      @ [
          ("conn.rtt_us_mean", rtt_mean /. 1e3);
          ("conn.self_us_mean", (rtt_mean -. Common.mean_dur service) /. 1e3);
          ("gen.late_p99_us", Stat.us (Stat.pct (Stat.sorted late) 0.99));
          ("budget.residual_us", (Stat.mean (Stat.merge (Array.to_list lat)) -. work) /. 1e3);
        ]
    end
  in
  (* Durability check: stop the primary, recover the store and compare
     every binding with the acknowledged history. *)
  stop st;
  let recovered = recover ~structure ~scheme st.store_dir in
  List.iter (Hashtbl.remove recovered) unknown;
  let expected = ref 0 in
  Array.iter
    (fun model ->
      Hashtbl.iter
        (fun k v ->
          if not (List.mem k unknown) then begin
            incr expected;
            match Hashtbl.find_opt recovered k with
            | Some v' when v' = v -> ()
            | Some v' -> Common.fail "kv-write-wal: key %d recovered as %d, acked %d" k v' v
            | None -> Common.fail "kv-write-wal: acked binding %d -> %d lost" k v
          end)
        model)
    models;
  if Hashtbl.length recovered <> !expected then
    Common.fail "kv-write-wal: %d bindings recovered, acked history has %d"
      (Hashtbl.length recovered) !expected;
  {
    Common.setups;
    slice_s = float_of_int w.w_slice /. 1e9;
    ops;
    lat;
    cpu;
    attempted;
    failed;
    completed;
    achieved = Some (Common.fdiv (float_of_int completed) (float_of_int (last - w.w_start) /. 1e9));
    rtt_ns = rtt_mean;
    unreclaimed;
    unreclaimed_slices;
    layers;
  }
