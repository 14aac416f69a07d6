(* In-memory span recorder for the traced run.

   Every span is timed around a call into one layer, from the
   benchmark's own wrappers (see wrap.ml).  Each domain records into
   its own buffer, so the hot path takes no lock: a stack of open
   spans gives each closing span its parent and its self time (its
   duration minus the part covered by its child spans), per-name
   totals accumulate in place, and the first [log_cap] spans of each
   domain are kept verbatim and written out when the run ends.

   Recording is gated by [on]: wrappers installed for the traced run
   cost one atomic read per call while it is off (set-up, prefill,
   teardown). *)

let names =
  [|
    "hyaline.enter"; "hyaline.leave"; "hyaline.trim"; "hyaline.retire";
    "dstruct.read"; "dstruct.write"; "shard.service"; "shm.inline_get";
    "wal.sync"; "client.call"; "ctl.enter"; "ctl.leave"; "ctl.trim"; "ctl.retire";
  |]

let h_enter = 0
let h_leave = 1
let h_trim = 2
let h_retire = 3
let d_read = 4
let d_write = 5
let shard_service = 6
let inline_get = 7
let wal_sync = 8
let client_call = 9

(* The service's control-plane tracker (mailboxes), kept apart from
   the map trackers.  Its idle consumers bracket every poll, so its
   spans are totalled but not logged. *)
let ctl_enter = 10
let ctl_leave = 11
let ctl_trim = 12
let ctl_retire = 13
let nnames = Array.length names

(* Names whose every duration is kept for exact percentiles. *)
let keep = [ shard_service; wal_sync ]

(* Plain event counters, per domain. *)
let c_getc = 0
let c_wal_records = 1
let c_wal_bytes = 2
let ncounters = 3

let on = Atomic.make false
let log_cap = 20_000
let max_depth = 32

type buf = {
  dom : int;
  st_start : int array;
  st_child : int array;
  st_log : int array;
  mutable depth : int;
  cnt : int array;
  dur : int array;
  self : int array;
  root : int array;
  keep_s : Stat.samples array;
  ctr : int array;
  mutable nlog : int;
  lg_name : int array;
  lg_start : int array;
  lg_stop : int array;
  lg_parent : int array;
  lg_rid : int array;
}

let bufs = ref []
let bufs_mu = Mutex.create ()

let make_buf () =
  let b =
    {
      dom = (Domain.self () :> int);
      st_start = Array.make max_depth 0;
      st_child = Array.make max_depth 0;
      st_log = Array.make max_depth (-1);
      depth = 0;
      cnt = Array.make nnames 0;
      dur = Array.make nnames 0;
      self = Array.make nnames 0;
      root = Array.make nnames 0;
      keep_s = Array.init nnames (fun _ -> Stat.samples ~cap:16 ());
      ctr = Array.make ncounters 0;
      nlog = 0;
      lg_name = Array.make log_cap 0;
      lg_start = Array.make log_cap 0;
      lg_stop = Array.make log_cap 0;
      lg_parent = Array.make log_cap (-1);
      lg_rid = Array.make log_cap (-1);
    }
  in
  Mutex.lock bufs_mu;
  bufs := b :: !bufs;
  Mutex.unlock bufs_mu;
  b

let key = Domain.DLS.new_key make_buf

let log b name t0 t1 parent rid =
  let i = b.nlog in
  if i < log_cap then begin
    b.lg_name.(i) <- name;
    b.lg_start.(i) <- t0;
    b.lg_stop.(i) <- t1;
    b.lg_parent.(i) <- parent;
    b.lg_rid.(i) <- rid;
    b.nlog <- i + 1;
    i
  end
  else -1

let account b name d self =
  b.cnt.(name) <- b.cnt.(name) + 1;
  b.dur.(name) <- b.dur.(name) + d;
  b.self.(name) <- b.self.(name) + self;
  if List.mem name keep then Stat.add b.keep_s.(name) d

(* [start name rid] opens a span and returns a token for {!stop}, or
   -1 when recording is off.  The token is the stack depth, so a span
   closed out of order (an exception unwinding past a wrapper) resets
   the stack instead of corrupting it. *)
let start_rid name rid =
  if not (Atomic.get on) then -1
  else begin
    let b = Domain.DLS.get key in
    let d = b.depth in
    if d >= max_depth then -1
    else begin
      b.st_start.(d) <- Stat.now_ns ();
      b.st_child.(d) <- 0;
      (* Reserve the log slot at open so children can name it. *)
      b.st_log.(d) <-
        (if name >= ctl_enter then -1
         else
           let parent = if d > 0 then b.st_log.(d - 1) else -1 in
           log b name 0 0 parent rid);
      b.depth <- d + 1;
      d
    end
  end

let start name = start_rid name (-1)

let stop name tok =
  if tok >= 0 then begin
    let t1 = Stat.now_ns () in
    let b = Domain.DLS.get key in
    let t0 = b.st_start.(tok) in
    let d = t1 - t0 in
    account b name d (d - b.st_child.(tok));
    if tok = 0 then b.root.(name) <- b.root.(name) + d;
    let li = b.st_log.(tok) in
    if li >= 0 then begin
      b.lg_start.(li) <- t0;
      b.lg_stop.(li) <- t1
    end;
    if tok > 0 then b.st_child.(tok - 1) <- b.st_child.(tok - 1) + d;
    b.depth <- tok
  end

(* A span that began in another domain (submit here, reply there):
   recorded whole by the domain that ends it, with no parent. *)
let record name ~t0 ~t1 ~rid =
  let b = Domain.DLS.get key in
  account b name (t1 - t0) (t1 - t0);
  ignore (log b name t0 t1 (-1) rid)

let count c n =
  if Atomic.get on then begin
    let b = Domain.DLS.get key in
    b.ctr.(c) <- b.ctr.(c) + n
  end

let all () =
  Mutex.lock bufs_mu;
  let l = !bufs in
  Mutex.unlock bufs_mu;
  l

let reset () =
  List.iter
    (fun b ->
      Array.fill b.cnt 0 nnames 0;
      Array.fill b.dur 0 nnames 0;
      Array.fill b.self 0 nnames 0;
      Array.fill b.root 0 nnames 0;
      Array.fill b.ctr 0 ncounters 0;
      Array.iter Stat.clear b.keep_s;
      b.nlog <- 0)
    (all ())

type total = { n : int; dur_ns : int; self_ns : int; root_ns : int }
(** [root_ns]: duration of the spans that opened with no parent
    (the work a domain did outside any other traced call). *)

let total name =
  List.fold_left
    (fun acc b ->
      {
        n = acc.n + b.cnt.(name);
        dur_ns = acc.dur_ns + b.dur.(name);
        self_ns = acc.self_ns + b.self.(name);
        root_ns = acc.root_ns + b.root.(name);
      })
    { n = 0; dur_ns = 0; self_ns = 0; root_ns = 0 }
    (all ())

let counter c = List.fold_left (fun acc b -> acc + b.ctr.(c)) 0 (all ())
let durations name = Stat.merge (List.map (fun b -> b.keep_s.(name)) (all ()))

(* Tab-separated span log: domain, index, name, start, stop, parent
   index (same domain, -1 = root), request id (the key, -1 = none). *)
let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "domain\tidx\tname\tstart_ns\tstop_ns\tparent\trid\n";
  List.iter
    (fun b ->
      for i = 0 to b.nlog - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" b.dom i
          names.(b.lg_name.(i)) b.lg_start.(i) b.lg_stop.(i) b.lg_parent.(i)
          b.lg_rid.(i)
      done)
    (List.rev (all ()))
