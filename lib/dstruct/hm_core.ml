(** Shared machinery of the sorted lock-free linked list (Harris's
    algorithm with Michael's modification that unlinks and retires
    deleted nodes timely — the variant usable by every SMR scheme,
    robust ones included) and of Michael's hash map, whose buckets are
    exactly these lists.

    Link encoding.  A [link] is either [Nil], a node, or [Mark succ].
    An unmarked link {e is} its successor node — the node is an inline
    record of the [Node] constructor, so following a link touches the
    node block and its [next] cell, nothing else.  A node [x] is
    {e logically deleted} iff [x.next] holds a [Mark succ]; the mark
    travels with the successor pointer in one atomic word, and a
    delete allocates exactly that one [Mark] block.  Traversals unlink
    (and retire) every marked node they pass, so deleted nodes are
    reclaimed promptly no matter which operation encounters them
    first.

    CAS witnesses are node identities (physical equality on the node
    block, or the immediate [Nil]).  Nodes are recycled through a
    pool, so a witness could in principle revisit an old value (ABA);
    as in Michael's C setting it cannot, because every node a CAS
    names — the predecessor owning the cell and the expected successor
    — is protected by the SMR scheme for the duration of the
    operation and therefore cannot be freed and reused in between.
    A marked predecessor holds a [Mark] block, never a bare node, so a
    CAS expecting a node also fails if the predecessor got deleted. *)

open Smr

module Make (T : Tracker.S) = struct
  type link =
    | Nil
    | Node of {
        hdr : Hdr.t;
        pool_index : int;
        mutable key : int;
        mutable value : int;
        next : link Atomic.t;
      }
    | Mark of link  (** never nested: the payload is [Nil] or a [Node] *)

  (* The free hook a pooled node carries until its first allocation
     installs the real one (a node never changes pools, so once is
     enough and the alloc path allocates no closure). *)
  let unset_hook () = ()

  module Pool = Mpool.Make (struct
    type t = link

    let create ~index =
      let hdr = Hdr.create () in
      hdr.Hdr.free_hook <- unset_hook;
      Node { hdr; pool_index = index; key = 0; value = 0; next = Atomic.make Nil }

    let index = function
      | Node n -> n.pool_index
      | Nil | Mark _ -> invalid_arg "Hm_core: not a node"

    let on_alloc = function Node n -> Hdr.set_live n.hdr | Nil | Mark _ -> ()
    let on_free _ = ()
  end)

  type core = { cfg : Config.t; tracker : T.t; pool : Pool.t }

  let make_core cfg = { cfg; tracker = T.create cfg; pool = Pool.create () }
  let gauges_of core = T.gauges core.tracker @ Pool.gauges core.pool
  let inject_alloc_failures_in core ~n = Pool.inject_failures core.pool ~n

  (* What a read of a link protects.  [proj] follows a mark to the
     successor; [proj_live] protects (and, under [check_uaf], asserts
     live) only unmarked successors.  A marked node's frozen [next] may
     name a successor that was unlinked and freed after the marked node
     itself left the list; [search] never dereferences such a link —
     its unlinking CAS fails first — so it reads marks through
     [proj_live] and re-protects the successor after a successful
     unlink. *)
  let rec proj = function
    | Node n -> n.hdr
    | Nil -> Hdr.nil
    | Mark l -> proj l

  let proj_live = function Node n -> n.hdr | Nil | Mark _ -> Hdr.nil

  let alloc core ~tid key value =
    let l = Pool.alloc core.pool in
    (match l with
    | Node n ->
        n.key <- key;
        n.value <- value;
        if n.hdr.Hdr.free_hook == unset_hook then
          n.hdr.Hdr.free_hook <- (fun () -> Pool.free core.pool l);
        T.alloc_hook core.tracker ~tid n.hdr
    | Nil | Mark _ -> assert false);
    l

  let next_cell = function
    | Node n -> n.next
    | Nil | Mark _ -> invalid_arg "Hm_core: not a node"

  (* Free a node that was never published (lost insertion race). *)
  let discard = function
    | Node n ->
        Hdr.set_freed n.hdr;
        n.hdr.Hdr.free_hook ()
    | Nil | Mark _ -> ()

  (* Michael's find: returns the predecessor link cell and the first
     link with key >= [key] ([Nil] = end of list).  That link is also
     the exact value read from the cell, so it doubles as the CAS
     witness.  Unlinks and retires every marked node encountered;
     restarts from [head] when a witness goes stale.

     Three read slots rotate with the hand-over-hand walk: [pi]
     protects the node owning [prev], [ci] protects [curr], and the
     next read goes to the free slot [fi].  The returned [prev] cell and
     [curr] witness are thus both protected when the caller CASes —
     the ABA-freedom of node-identity witnesses rests on it.  After an
     unlink the retired node's slot is the free one, so the
     predecessor stays covered. *)
  let rec advance tracker ~tid ~head key (prev : link Atomic.t) pi
      (curr : link) ci fi =
    match curr with
    | Nil -> (prev, curr)
    | Mark _ -> restart tracker ~tid ~head key (* prev itself got deleted *)
    | Node c -> (
        match T.read tracker ~tid ~idx:fi c.next proj_live with
        | Mark succ ->
            (* c is logically deleted: unlink it here.  The witness
               [curr] is a bare node, so the CAS also fails if the
               predecessor itself got marked meanwhile.  [succ] was
               read unprotected; re-read [prev] to protect it. *)
            if Atomic.compare_and_set prev curr succ then begin
              T.retire tracker ~tid c.hdr;
              let curr = T.read tracker ~tid ~idx:fi prev proj_live in
              advance tracker ~tid ~head key prev pi curr fi ci
            end
            else restart tracker ~tid ~head key
        | succ ->
            if c.key >= key then (prev, curr)
            else advance tracker ~tid ~head key c.next ci succ fi pi)

  and restart tracker ~tid ~head key =
    let curr = T.read tracker ~tid ~idx:0 head proj_live in
    advance tracker ~tid ~head key head 2 curr 0 1

  let search core ~tid ~head key = restart core.tracker ~tid ~head key

  let get_in core ~tid ~head key =
    match search core ~tid ~head key with
    | _, Node c when c.key = key -> Some c.value
    | _ -> None

  (* Insert ([update] false) and put ([update] true) share one loop.
     The node is allocated only once [search] has found the key absent,
     so an insert of a present key costs no pool allocation, no
     tracker alloc hook and no discard; a node that lost its CAS was
     never published and is kept for the retry ([fresh] is [Nil] until
     then), so each insert allocates at most one node.  Put updates the
     value in place when the key exists.  (A node-replacing variant —
     mark the old node, swing the predecessor to a fresh one — was
     tried and rejected: if the swing CAS fails after the mark, the
     operation has already published a deletion and must re-insert,
     making one put two observable mutations.  The linearizability
     tests caught exactly that.  A single word write on the
     still-protected node is atomic and linearizes at the write.)
     Top-level recursion, so an operation allocates no closure. *)
  let rec add_in core ~tid ~head ~update key value fresh =
    match search core ~tid ~head key with
    | _, Node c when c.key = key ->
        if update then c.value <- value;
        discard fresh;
        false
    | prev, curr ->
        let fresh =
          match fresh with Nil -> alloc core ~tid key value | n -> n
        in
        Atomic.set (next_cell fresh) curr;
        if Atomic.compare_and_set prev curr fresh then true
        else add_in core ~tid ~head ~update key value fresh

  let insert_in core ~tid ~head key value =
    add_in core ~tid ~head ~update:false key value Nil

  let put_in core ~tid ~head key value =
    add_in core ~tid ~head ~update:true key value Nil

  let rec remove_in core ~tid ~head key =
    match search core ~tid ~head key with
    | prev, (Node c as curr) when c.key = key -> (
        match Atomic.get c.next with
        | Mark _ -> remove_in core ~tid ~head key (* someone else is deleting c *)
        | succ ->
            if Atomic.compare_and_set c.next succ (Mark succ) then begin
              (* Logical deletion done; try to unlink physically.  On
                 failure a later traversal performs the unlink (and the
                 retire) — exactly one unlinker exists because only one
                 CAS can ever swing the unique predecessor past c. *)
              if Atomic.compare_and_set prev curr succ then
                T.retire core.tracker ~tid c.hdr
              else ignore (search core ~tid ~head key);
              true
            end
            else remove_in core ~tid ~head key)
    | _ -> false

  (* Live traversal for the snapshot path: the same hand-over-hand
     rotating-slot protection as [search] (prev/curr/next always
     covered, so this is safe under every scheme, HP/HE included),
     but strictly read-only — marked nodes are skipped, never
     unlinked, so a snapshot reader on another tid cannot race the
     single-mutator discipline of the serving consumer. *)
  let fold_live_in core ~tid ~head f acc =
    let tracker = core.tracker in
    let d = ref 0 in
    let read_link cell =
      let l = T.read tracker ~tid ~idx:(!d mod 3) cell proj in
      incr d;
      l
    in
    let rec go acc = function
      | Nil | Mark _ -> acc
      | Node c -> (
          match read_link c.next with
          | Mark succ -> go acc succ
          | succ -> go (f acc c.key c.value) succ)
    in
    go acc (read_link head)

  (* Quiescent helpers. *)

  let fold_in ~head f acc =
    let rec go acc = function
      | Nil | Mark _ -> acc
      | Node c -> (
          match Atomic.get c.next with
          | Mark succ -> go acc succ
          | succ -> go (f acc c.key c.value) succ)
    in
    go acc (Atomic.get head)

  let to_list_in ~head =
    List.rev (fold_in ~head (fun acc k v -> (k, v) :: acc) [])

  let size_in ~head = fold_in ~head (fun n _ _ -> n + 1) 0

  let check_in ~head =
    let rec go prev_key = function
      | Nil -> ()
      | Mark _ -> failwith "Hm_core.check: nested mark"
      | Node c ->
          Hdr.check_not_freed "Hm_core.check: reachable node freed" c.hdr;
          if c.key <= prev_key then
            failwith
              (Printf.sprintf "Hm_core.check: order violation %d <= %d" c.key
                 prev_key);
          go c.key
            (match Atomic.get c.next with Mark succ -> succ | succ -> succ)
    in
    go min_int (Atomic.get head)
end
