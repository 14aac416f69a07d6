(* kv-read-shm: reads through the zero-copy path.  Two paced
   closed-loop connections over Service.Shm_conn to an in-process arena-backed
   Shard service (2 shards, hyaline, one zero-copy reader slot); every
   connection negotiates by-reference GETs.  95% GET / 5% PUTB, Zipf
   keys, per-key value sizes of 64 B, 1 KiB or 4080 B. *)

open Workload
module Codec = Service.Codec
module Arena = Shmalloc.Arena

let scheme_name = "hyaline"
let structure_name = "hashmap"
let shards = 2
let clients = Gen.Shm.clients

(* Size classes fit the three value sizes plus the arena's one-byte
   kind tag.  Each class holds its whole share of the keyspace (about
   a third of 8,192 keys) with room for the retire backlog. *)
let payloads = [| 72; 1032; 4088 |]
let blocks = [| 4096; 4096; 4096 |]

(* Offered rate, ops/s over both connections: request [i] of
   connection [c] is due at [start + (i * clients + c) / pace], and is
   sent then or, if the previous reply is late, as soon as it lands.
   About a quarter of the unpaced capacity (35k-49k ops/s on the
   2-core host); unpaced, throughput swung 25% between runs of one
   seed (see README.md). *)
let pace = 10000.

let params =
  [
    ( "loop",
      Printf.sprintf "closed, paced at %g ops/s, %d shm connections, zero-copy GET negotiated" pace
        clients );
    ("scheme", scheme_name);
    ("structure", structure_name);
    ("shards", string_of_int shards);
    ("zc_readers", "1");
    ("keyspace", Printf.sprintf "%d, all prefilled" Gen.Shm.keys);
    ("key_dist", "zipf(0.99) over each client's stripe");
    ("value_sizes", "64, 1024, 4080 bytes by Zipf rank mod 3");
    ("mix", "95% GET / 5% PUTB");
    ( "arena",
      Printf.sprintf "handoff, classes %s bytes x %s blocks"
        (String.concat "/" (Array.to_list (Array.map string_of_int payloads)))
        (String.concat "/" (Array.to_list (Array.map string_of_int blocks))) );
  ]

let stream ~seed ~client ~n =
  let g = Gen.Shm.create ~seed ~client in
  List.init n (fun _ ->
      match Gen.Shm.next g with
      | Codec.Putb { key; value } -> Printf.sprintf "putb %d %s" key (Digest.to_hex (Digest.string value))
      | r -> Codec.request_to_string r)

type state = {
  d : string;
  arena : Arena.t;
  svc : Service.Shard.t;
  srv : Service.Shm_conn.server;
  conns : Service.Shm_conn.client array;
}

let teardown st =
  Array.iter Service.Shm_conn.close st.conns;
  Service.Shm_conn.shutdown st.srv;
  st.svc.stop ();
  Arena.mark_closed st.arena;
  Arena.detach st.arena;
  Arena.unlink st.arena;
  Common.rm_rf st.d

let run ~seed ~seconds ~traced ~dir =
  let scheme = Registry.find_scheme scheme_name in
  let structure = Registry.find_structure structure_name in
  let scheme, structure =
    if traced then (Wrap.scheme scheme, Wrap.structure structure) else (scheme, structure)
  in
  Wrap.reset_maps ();
  let setup i =
    let d = Common.fresh_dir (Filename.concat dir (Printf.sprintf "shm%d" i)) in
    let path = Filename.concat d "kv" in
    Service.Shm_conn.claim_listen_path path;
    let arena =
      Arena.create ~path:(path ^ ".arena") ~slots:clients ~policy:Arena.Handoff ~tids:shards
        ~payloads ~blocks ()
    in
    let svc =
      Service.Shard.create ~structure ~scheme
        {
          Service.Shard.default_config with
          shards;
          clients;
          zc_readers = 1;
          arena = Some arena;
        }
    in
    Service.Shard.pipeline svc ~tid:0 ~n:Gen.Shm.keys (fun key ->
        Codec.Putb { key; value = Gen.Shm.value ~seed ~key ~ver:0 });
    let srv = Service.Shm_conn.serve (if traced then Wrap.shard svc else svc) ~path () in
    let conns =
      Array.init clients (fun _ ->
          let c = Service.Shm_conn.connect ~path in
          if not (Service.Shm_conn.enable_zc c) then Common.fail "kv-read-shm: zero-copy refused";
          c)
    in
    { d; arena; svc; srv; conns }
  in
  let setups, st =
    Common.repeat_setup ~reps:5 ~setup ~teardown:(fun s ->
        teardown s;
        Wrap.reset_maps ())
  in
  Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
  let svc = st.svc in
  let probe = Common.svc_probe svc in
  let unreclaimed =
    Stat.gauge (fun () ->
        Common.data_unreclaimed svc () + Common.ctl_unreclaimed svc () + Arena.unreclaimed st.arena)
  in
  let g_arena = Stat.gauge (fun () -> Arena.unreclaimed st.arena) in
  (* The model: each client owns its stripe, so the value it last
     wrote is the only right answer to its GET. *)
  let models =
    Array.init clients (fun client ->
        Array.init Gen.Shm.stripe (fun rank ->
            Gen.Shm.value ~seed ~key:(Gen.Shm.key_of ~client rank) ~ver:0))
  in
  (* Collect set-up garbage now rather than in the window. *)
  Gc.full_major ();
  let stop = Atomic.make false in
  let start = Stat.now_ns () in
  let w = Common.window ~start:(start + int_of_float (Common.warmup_s seconds *. 1e9)) ~seconds in
  let client c () =
    let conn = st.conns.(c) and model = models.(c) in
    let g = Gen.Shm.create ~seed ~client:c in
    let lat = Array.init Common.slices (fun _ -> Stat.samples ~cap:(1 lsl 14) ()) in
    let ops = Array.make Common.slices 0 in
    let late = Stat.samples ~cap:(1 lsl 14) () in
    let n = ref 0 and failed = ref 0 and gets = ref 0 and sent = ref 0 and last = ref 0 in
    let interval = 1e9 /. pace in
    (try
       while not (Atomic.get stop) do
         let due = start + int_of_float (float_of_int ((!sent * clients) + c) *. interval) in
         Common.sleep_until due;
         incr sent;
         let req = Gen.Shm.next g in
         let t0 = Stat.now_ns () in
         if due >= w.w_start then Stat.add late (t0 - due);
         let reply = Service.Shm_conn.call conn req in
         let t1 = Stat.now_ns () in
         let i = Common.slice_of w t1 in
         let ok =
           match (req, reply) with
           | _, (Codec.Shed | Codec.Error _) -> false
           | Codec.Get key, Codec.Value_blob v ->
               if i >= 0 then incr gets;
               if not (String.equal v model.(key / clients)) then
                 Common.fail "kv-read-shm: GET %d returned %d bytes, not the %d last written" key
                   (String.length v) (String.length model.(key / clients));
               true
           | Codec.Putb { key; value }, Codec.Updated ->
               model.(key / clients) <- value;
               true
           | r, rep ->
               Common.fail "kv-read-shm: %s answered %s" (Codec.request_to_string r)
                 (Codec.reply_to_string rep)
         in
         if i >= 0 then begin
           incr n;
           if ok then begin
             last := t1;
             ops.(i) <- ops.(i) + 1;
             Stat.add lat.(i) (t1 - t0)
           end
           else incr failed
         end
       done
     with Service.Conn.Closed -> incr failed);
    (!n, !failed, !gets, ops, lat, late, !last)
  in
  let doms = List.init clients (fun c -> Domain.spawn (client c)) in
  Common.sleep_until w.w_start;
  Common.svc_open probe;
  let a_ret0 = Arena.retired st.arena and a_free0 = Arena.freed st.arena in
  if traced then begin
    Trace.reset ();
    Atomic.set Trace.on true
  end;
  let cpu, unreclaimed_slices =
    Common.measure w unreclaimed (if traced then g_arena :: Common.svc_gauges probe else [])
  in
  Atomic.set Trace.on false;
  Common.svc_close probe;
  let a_ret1 = Arena.retired st.arena and a_free1 = Arena.freed st.arena in
  Atomic.set stop true;
  let outs = List.map Domain.join doms in
  let attempted = List.fold_left (fun a (n, _, _, _, _, _, _) -> a + n) 0 outs in
  let failed = List.fold_left (fun a (_, f, _, _, _, _, _) -> a + f) 0 outs in
  let gets = List.fold_left (fun a (_, _, g, _, _, _, _) -> a + g) 0 outs in
  let ops =
    Array.init Common.slices (fun i -> List.fold_left (fun a (_, _, _, o, _, _, _) -> a + o.(i)) 0 outs)
  in
  let lat =
    Array.init Common.slices (fun i -> Stat.merge (List.map (fun (_, _, _, _, l, _, _) -> l.(i)) outs))
  in
  let completed = Array.fold_left ( + ) 0 ops in
  let late = Stat.merge (List.map (fun (_, _, _, _, _, l, _) -> l) outs) in
  let last = List.fold_left (fun a (_, _, _, _, _, _, l) -> max a l) w.w_start outs in
  let rtt = Stat.mean (Stat.merge (Array.to_list lat)) in
  let layers =
    if not traced then []
    else begin
      let inline = Trace.total Trace.inline_get in
      let service = Trace.total Trace.shard_service in
      let measured = Common.idiv (inline.dur_ns + Common.service_work_ns ()) completed in
      Common.trace_layers () @ Common.svc_layers probe
      @ [
          ("shm.rtt_us_mean", rtt /. 1e3);
          ( "shm.self_us_mean",
            (rtt -. Common.idiv (inline.dur_ns + service.dur_ns) completed) /. 1e3 );
          ("shm.inline_get_ns", Common.mean_dur inline);
          ("shm.inline_frac", Common.idiv inline.n gets);
          ("shmalloc.unreclaimed_avg", Stat.gauge_mean g_arena);
          ( "shmalloc.free_per_retire",
            Common.idiv (a_free1 - a_free0) (a_ret1 - a_ret0) );
          ("shmalloc.copy_fallback_frac", Common.idiv (Trace.counter Trace.c_getc) gets);
          ("gen.late_p99_us", Stat.us (Stat.pct (Stat.sorted late) 0.99));
          ("budget.residual_us", (rtt -. measured) /. 1e3);
        ]
    end
  in
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
    rtt_ns = rtt;
    unreclaimed;
    unreclaimed_slices;
    layers;
  }
