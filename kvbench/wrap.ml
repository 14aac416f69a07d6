(* The traced run's wrappers.  Each one sits on a public
   parameterization point a layer already takes, so the program runs
   unchanged and the spans are timed from the benchmark's own files:

   - [scheme]: the [Registry.scheme] packed tracker (SMR brackets and
     retire);
   - [structure]: the [Registry.structure] maker functor (map
     operations; it also registers every map it creates so its gauges
     can be sampled);
   - [shard]: the [Shard.t] record's [submit] (submit -> reply, the
     mailbox and consumer) and zero-copy closures (the inline GET);
   - [store]: the [Replica.Store.t] writer closures (WAL appends and
     the group-commit sync). *)

open Workload

(* Set while a wrapped structure builds a map, so the tracker the map
   creates is told apart from a service's control-plane tracker (both
   come from the same scheme module).  Maps are built on one domain. *)
let building_map = ref false

module Tracker (T : Smr.Tracker.S) : Smr.Tracker.S = struct
  type t = { inner : T.t; data : bool }

  let name = T.name
  let robust = T.robust
  let transparent = T.transparent
  let create cfg = { inner = T.create cfg; data = !building_map }

  let timed t data ctl f =
    let n = if t.data then data else ctl in
    let s = Trace.start n in
    f t.inner;
    Trace.stop n s

  let enter t ~tid = timed t Trace.h_enter Trace.ctl_enter (fun i -> T.enter i ~tid)
  let leave t ~tid = timed t Trace.h_leave Trace.ctl_leave (fun i -> T.leave i ~tid)
  let trim t ~tid = timed t Trace.h_trim Trace.ctl_trim (fun i -> T.trim i ~tid)
  let retire t ~tid h = timed t Trace.h_retire Trace.ctl_retire (fun i -> T.retire i ~tid h)
  let alloc_hook t ~tid h = T.alloc_hook t.inner ~tid h
  let read t ~tid ~idx link proj = T.read t.inner ~tid ~idx link proj
  let transfer t ~tid ~from_idx ~to_idx = T.transfer t.inner ~tid ~from_idx ~to_idx
  let flush t ~tid = T.flush t.inner ~tid
  let stats t = T.stats t.inner
  let gauges t = T.gauges t.inner
end

let scheme (s : Registry.scheme) : Registry.scheme =
  let module T = (val s.s_mod : Smr.Tracker.S) in
  { s with s_mod = (module Tracker (T) : Smr.Tracker.S) }

(* Gauge readers of every map built through a wrapped structure since
   the last [reset_maps]. *)
let maps : (unit -> (string * int) list) list ref = ref []
let maps_mu = Mutex.create ()

let reset_maps () =
  Mutex.lock maps_mu;
  maps := [];
  Mutex.unlock maps_mu

let map_gauge name () =
  Mutex.lock maps_mu;
  let l = !maps in
  Mutex.unlock maps_mu;
  List.fold_left
    (fun acc g ->
      match List.assoc_opt name (g ()) with Some v -> acc + v | None -> acc)
    0 l

let structure (d : Registry.structure) : Registry.structure =
  let module Mk = (val d.d_mod : Dstruct.Map_intf.MAKER) in
  let module W (T : Smr.Tracker.S) = struct
    module M = Mk (T)
    include M

    let create ?seed ~cfg () =
      building_map := true;
      let m = Fun.protect ~finally:(fun () -> building_map := false) (M.create ?seed ~cfg) in
      Mutex.lock maps_mu;
      maps := (fun () -> M.gauges m) :: !maps;
      Mutex.unlock maps_mu;
      m

    let get t ~tid k =
      let s = Trace.start_rid Trace.d_read k in
      let r = M.get t ~tid k in
      Trace.stop Trace.d_read s;
      r

    let write name f t ~tid k =
      let s = Trace.start_rid name k in
      let r = f t ~tid k in
      Trace.stop name s;
      r

    let insert t ~tid k v = write Trace.d_write (fun t ~tid k -> M.insert t ~tid k v) t ~tid k
    let put t ~tid k v = write Trace.d_write (fun t ~tid k -> M.put t ~tid k v) t ~tid k
    let remove t ~tid k = write Trace.d_write M.remove t ~tid k
  end in
  { d with d_mod = (module W : Dstruct.Map_intf.MAKER) }

(* The multiplexer is the only caller of the zero-copy closures, so
   the open inline-GET span (enter .. read .. leave) lives in one
   cell. *)
let shard (svc : Service.Shard.t) : Service.Shard.t =
  let inline_tok = ref (-1) in
  {
    svc with
    submit =
      (fun ~tid req k ->
        if not (Atomic.get Trace.on) then svc.submit ~tid req k
        else begin
          let rid =
            match req with
            | Service.Codec.Getc key ->
                Trace.count Trace.c_getc 1;
                key
            | Get key | Put { key; _ } | Del key | Cas { key; _ } | Putb { key; _ } -> key
            | _ -> -1
          in
          let t0 = Stat.now_ns () in
          svc.submit ~tid req (fun r ->
              Trace.record Trace.shard_service ~t0 ~t1:(Stat.now_ns ()) ~rid;
              k r)
        end);
    zc_enter =
      (fun ~slot ->
        inline_tok := Trace.start Trace.inline_get;
        svc.zc_enter ~slot);
    zc_leave =
      (fun ~slot ->
        svc.zc_leave ~slot;
        Trace.stop Trace.inline_get !inline_tok;
        inline_tok := -1);
  }

let count_records s =
  fst
    (Service.Codec.fold_frames (Service.Codec.string_source s)
       (fun n _ -> n + 1)
       0)

let store (s : Replica.Store.t) : Replica.Store.t =
  {
    s with
    s_append =
      (fun name ->
        let w = s.s_append name in
        {
          w with
          w_append =
            (fun bytes ->
              if Atomic.get Trace.on then begin
                Trace.count Trace.c_wal_bytes (String.length bytes);
                Trace.count Trace.c_wal_records (count_records bytes)
              end;
              w.w_append bytes);
          w_sync =
            (fun () ->
              let t = Trace.start Trace.wal_sync in
              w.w_sync ();
              Trace.stop Trace.wal_sync t);
        });
  }
