module type POOLABLE = sig
  type t

  val create : index:int -> t
  val index : t -> int
  val on_alloc : t -> unit
  val on_free : t -> unit
end

exception Injected_oom

type stats = { created : int; allocs : int; frees : int }

let pp_stats ppf { created; allocs; frees } =
  Format.fprintf ppf "created=%d allocs=%d frees=%d live=%d" created allocs
    frees (allocs - frees)

(* Registry chunking: [lookup] must be wait-free while creation grows
   the index space, so nodes live in fixed-size chunks hung off a
   fixed directory, never moved after publication. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let max_chunks = 1 lsl 16

(* The alloc/free counters are striped by domain (see
   [Prims.Xatomic.striped]), so domains allocating and freeing on every
   operation never write a shared line.  A domain's stripe is its
   domain id, kept in its free cache record (fetched on both paths
   anyway). *)
module X = Prims.Xatomic

module Make (P : POOLABLE) = struct
  (* Per-domain free cache.  [count] is maintained incrementally so
     [free] never walks the list (spilling used to be O(cache) per
     free). *)
  type cache = { mutable count : int; mutable nodes : P.t list; stripe : int }

  type t = {
    next_index : int Atomic.t;
    chunks : P.t option Atomic.t array option Atomic.t array;
    shared_free : (int * P.t list) list Atomic.t;
        (* a stack of spilled chunks, each with its length *)
    shared_len : int Atomic.t;
    local_cache : int;
    cache_key : cache Domain.DLS.key;
    created : int Atomic.t;
    allocs : X.striped;
    frees : X.striped;
    (* Fault-injection budget: while positive, each [alloc] consumes
       one unit and raises [Injected_oom] instead of handing out a
       node.  Disabled (0) costs one relaxed load on the alloc path —
       see the bench/main.ml hook-overhead group. *)
    oom_budget : int Atomic.t;
  }

  let create ?(local_cache = 64) () =
    if local_cache < 0 then invalid_arg "Mpool.create: local_cache < 0";
    {
      next_index = Atomic.make 0;
      chunks = Array.init max_chunks (fun _ -> Atomic.make None);
      shared_free = Atomic.make [];
      shared_len = Atomic.make 0;
      local_cache;
      cache_key =
        Domain.DLS.new_key (fun () ->
            { count = 0; nodes = []; stripe = (Domain.self () :> int) });
      created = Atomic.make 0;
      allocs = X.make_striped ();
      frees = X.make_striped ();
      oom_budget = Atomic.make 0;
    }

  let inject_failures t ~n =
    if n < 0 then invalid_arg "Mpool.inject_failures: n < 0";
    ignore (Atomic.fetch_and_add t.oom_budget n)

  let injected_failures_pending t = max 0 (Atomic.get t.oom_budget)

  (* Claim one unit of the armed budget; the CAS loop resolves races
     between concurrent allocators so exactly [n] allocations fail. *)
  let rec take_oom t =
    let n = Atomic.get t.oom_budget in
    if n <= 0 then false
    else if Atomic.compare_and_set t.oom_budget n (n - 1) then true
    else take_oom t

  (* The shared free list is a Treiber stack of whole chunks: a spill
     pushes a full per-domain cache as one chunk and a cache miss pops
     one chunk, each a single CAS doing O(1) work however long the
     stack is.  A flat list would force a miss to take the whole list
     and splice the surplus back, O(shared length), while other
     domains see an empty list and create fresh nodes that lengthen it
     further — under sustained churn that feeds on itself.  Popped
     cells are never pushed again (every push conses a fresh cell), so
     the CASes are ABA-free. *)
  let rec push_chunk t n nodes =
    let old = Atomic.get t.shared_free in
    if Atomic.compare_and_set t.shared_free old ((n, nodes) :: old) then
      ignore (Atomic.fetch_and_add t.shared_len n)
    else push_chunk t n nodes

  let rec pop_chunk t =
    match Atomic.get t.shared_free with
    | [] -> None
    | ((n, _) as chunk) :: rest as old ->
        if Atomic.compare_and_set t.shared_free old rest then begin
          ignore (Atomic.fetch_and_add t.shared_len (-n));
          Some chunk
        end
        else pop_chunk t

  (* Cache-miss path: one popped chunk refills this domain's cache. *)
  let refill t cache =
    match pop_chunk t with
    | Some (n, node :: rest) ->
        cache.nodes <- rest;
        cache.count <- n - 1;
        Some node
    | Some (_, []) | None -> None

  (* Install [node] into its registry cell.  Cells are [None] until
     their node is published, so a concurrent [lookup] can never
     observe another index's node through a pre-filled placeholder; it
     waits on the specific cell instead (see [lookup]). *)
  let publish t node =
    let i = P.index node in
    let c = i lsr chunk_bits in
    if c >= max_chunks then failwith "Mpool: index space exhausted";
    let slot = t.chunks.(c) in
    (match Atomic.get slot with
    | Some _ -> ()
    | None ->
        (* Only one thread wins the install; losers just use the
           winner's chunk. *)
        let arr = Array.init chunk_size (fun _ -> Atomic.make None) in
        ignore (Atomic.compare_and_set slot None (Some arr)));
    match Atomic.get slot with
    | Some arr -> Atomic.set arr.(i land (chunk_size - 1)) (Some node)
    | None -> assert false

  let fresh t =
    let i = Atomic.fetch_and_add t.next_index 1 in
    let node = P.create ~index:i in
    publish t node;
    Atomic.incr t.created;
    node

  let alloc t =
    if Atomic.get t.oom_budget > 0 && take_oom t then raise Injected_oom;
    let cache = Domain.DLS.get t.cache_key in
    X.striped_incr t.allocs cache.stripe;
    let node =
      match cache.nodes with
      | n :: rest ->
          cache.nodes <- rest;
          cache.count <- cache.count - 1;
          n
      | [] -> ( match refill t cache with Some n -> n | None -> fresh t)
    in
    P.on_alloc node;
    node

  (* With [local_cache = 0] every free spills a one-node chunk at once
     and every alloc refills from one, so the cache stays empty. *)
  let free t node =
    P.on_free node;
    let cache = Domain.DLS.get t.cache_key in
    X.striped_incr t.frees cache.stripe;
    cache.nodes <- node :: cache.nodes;
    cache.count <- cache.count + 1;
    if cache.count > t.local_cache then begin
      push_chunk t cache.count cache.nodes;
      cache.nodes <- [];
      cache.count <- 0
    end

  (* [fresh] reserves the index (the fetch-and-add on [next_index])
     before [publish] installs the node, so an index below
     [next_index] may designate a cell that is not yet — but is about
     to be — filled.  Wait on that cell rather than racing it: the
     publisher is a bounded number of instructions away from the
     store. *)
  let lookup t i =
    if i < 0 || i >= Atomic.get t.next_index then
      invalid_arg "Mpool.lookup: index out of range";
    let c = i lsr chunk_bits in
    let rec cell () =
      match Atomic.get t.chunks.(c) with
      | Some arr -> arr.(i land (chunk_size - 1))
      | None ->
          (* Chunk install in flight on the publishing domain. *)
          Domain.cpu_relax ();
          cell ()
    in
    let cell = cell () in
    let rec node () =
      match Atomic.get cell with
      | Some n -> n
      | None ->
          Domain.cpu_relax ();
          node ()
    in
    node ()

  (* Sum every [frees] stripe before any [allocs] stripe: frees never
     outpace allocs and the stripes are monotonic, so this order keeps
     [allocs >= frees] under concurrent updates. *)
  let stats t =
    let frees = X.striped_sum t.frees in
    let allocs = X.striped_sum t.allocs in
    { created = Atomic.get t.created; allocs; frees }

  let live t =
    let ({ allocs; frees; _ } : stats) = stats t in
    max 0 (allocs - frees)

  (* Clamped: a pop's decrement can land before the matching push's
     increment, leaving the counter transiently negative. *)
  let shared_free_length t = max 0 (Atomic.get t.shared_len)

  let gauges t =
    [
      ("mpool_live", live t);
      ("mpool_shared_free", shared_free_length t);
      ("mpool_created", Atomic.get t.created);
    ]
end
