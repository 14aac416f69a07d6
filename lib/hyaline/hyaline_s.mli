(** Hyaline-S — the robust extension (§4.2, Figure 5).

    Basic Hyaline, like EBR, lets one stalled thread pin every batch
    retired into its slot.  Hyaline-S borrows {e birth eras} from
    HE/IBR (but no retire eras, and no per-thread reservation
    intervals): a global era clock advances every [Config.epoch_freq]
    allocations, every tracked dereference raises the reader's
    {e per-slot} access era to the clock ([touch] — a CAS because
    slots are shared between threads), and [retire] simply skips slots
    whose access era predates the batch's oldest birth: threads there
    can hold no reference into the batch.

    Stalled threads are driven out of the way by {e Acks}: each
    insertion bumps the slot's Ack by the HRef snapshot and each
    traversal decrements it by the nodes visited, so an Ack that grows
    past [Config.ack_threshold] marks a slot whose occupants have
    stopped traversing; [enter] walks past such slots.  With
    [Config.adaptive = true] the slot space doubles (§4.3 directory)
    whenever every slot is marked, making the scheme fully robust; with
    the cap, robustness holds until stalled threads outnumber slots
    (both behaviours appear in Figure 10a).

    Besides the common gauges, [gauges] reports [ack_max], the largest
    Ack over the current slots: it reaches [Config.ack_threshold]
    exactly when some slot reads as stalled.

    [Config] fields used: [slots] (Kmin), [batch_min], [epoch_freq],
    [ack_threshold], [adaptive], [check_uaf]. *)

module Make (H : Head.OPS) : Tracker_ext.S

include Tracker_ext.S
(** Hyaline-S over double-width CAS. *)

module Llsc : Tracker_ext.S
(** Hyaline-S over emulated single-width LL/SC (§4.4). *)

module Packed : Tracker_ext.S
(** Hyaline-S over the packed single-word head ({!Head.Packed}):
    wait-free fetch-and-add [enter] and an allocation-free uncontended
    bracket (gated by the [hyaline.packed-head] tests). *)
