open Smr

module Make (H : Head.OPS) : Tracker_ext.S = struct
  module I = Internal.Make (H)

  type t = {
    cfg : Config.t;
    k : int;
    adjs : int;
    batch_size : int;
    heads : H.t array;
    handles : Hdr.t array; (* per tid; owner-written *)
    slots_of : int array; (* slot chosen by the tid's last enter *)
    builders : Batch.t array; (* per tid local batches *)
    reaps : Internal.reap array; (* per tid, reused; drain empties them *)
    stats : Stats.t;
  }

  let name = if H.backend = "dwcas" then "Hyaline" else "Hyaline(" ^ H.backend ^ ")"
  let robust = false
  let transparent = true

  let create cfg =
    Config.validate cfg;
    let k = cfg.slots in
    {
      cfg;
      k;
      adjs = Adjs.of_k k;
      (* Batches need strictly more nodes than slots (§3.2): one per
         slot list plus the dedicated NRef node. *)
      batch_size = max cfg.batch_min (k + 1);
      heads = Array.init k (fun _ -> H.make ());
      handles = Array.make cfg.nthreads Hdr.nil;
      slots_of = Array.make cfg.nthreads 0;
      builders = Array.init cfg.nthreads (fun _ -> Batch.create ());
      reaps = Array.init cfg.nthreads (fun _ -> Internal.new_reap ());
      stats = Stats.create ();
    }

  let slots t = t.k
  let pending t ~tid = Batch.size t.builders.(tid)

  let enter t ~tid =
    let slot = tid land (t.k - 1) in
    let snap = H.enter_faa t.heads.(slot) in
    t.slots_of.(tid) <- slot;
    t.handles.(tid) <- H.hptr snap

  let leave t ~tid =
    let slot = t.slots_of.(tid) in
    let reap = t.reaps.(tid) in
    let _count = I.leave_slot t.heads.(slot) ~handle:t.handles.(tid) reap in
    t.handles.(tid) <- Hdr.nil;
    Internal.drain t.stats ~tid reap

  let trim t ~tid =
    let slot = t.slots_of.(tid) in
    let reap = t.reaps.(tid) in
    let handle, _count = I.trim_slot t.heads.(slot) ~handle:t.handles.(tid) reap in
    t.handles.(tid) <- handle;
    Internal.drain t.stats ~tid reap

  let alloc_hook t ~tid (_ : Hdr.t) = Stats.on_alloc t.stats ~tid

  (* Basic Hyaline needs no deref protocol (Fig. 1a: "No deref in
     basic Hyaline") — an unprotected atomic load suffices. *)
  let read t ~tid:_ ~idx:_ a proj =
    let v = Atomic.get a in
    if t.cfg.check_uaf then Hdr.check_not_freed "Hyaline.read" (proj v);
    v

  let transfer _ ~tid:_ ~from_idx:_ ~to_idx:_ = ()

  let retire_batch t ~tid =
    let refnode = Batch.seal t.builders.(tid) ~adjs:t.adjs in
    let reap = t.reaps.(tid) in
    I.insert_batch
      (fun s -> t.heads.(s))
      ~k:t.k refnode
      ~skip:(fun ~slot:_ -> false)
      ~after_insert:(fun ~slot:_ ~href:_ -> ())
      reap;
    Internal.drain t.stats ~tid reap

  let retire t ~tid hdr =
    Tracker.retire_block t.stats ~tid hdr;
    Batch.add t.builders.(tid) hdr;
    if Batch.size t.builders.(tid) >= t.batch_size then retire_batch t ~tid

  (* Finalize a partial batch by padding with dummy nodes (§2.4: local
     batches "can be immediately finalized by allocating a finite
     number of dummy nodes"), making the thread fully off the hook. *)
  let flush t ~tid =
    let builder = t.builders.(tid) in
    if not (Batch.is_empty builder) then begin
      while Batch.size builder < t.batch_size do
        let dummy = Hdr.create () in
        Tracker.retire_block t.stats ~tid dummy;
        Batch.add builder dummy
      done;
      retire_batch t ~tid
    end

  let stats t = t.stats

  let gauges t =
    let pend_total = ref 0 and pend_max = ref 0 in
    Array.iter
      (fun b ->
        let s = Batch.size b in
        pend_total := !pend_total + s;
        if s > !pend_max then pend_max := s)
      t.builders;
    [
      ("slots", t.k);
      ("batch_pending_total", !pend_total);
      ("batch_pending_max", !pend_max);
    ]
end

include Make (Head.Dwcas)
module Llsc = Make (Llsc_head)
module Packed = Make (Head.Packed)
