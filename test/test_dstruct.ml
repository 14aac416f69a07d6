(* Data-structure tests: sequential model checking against Stdlib.Map,
   quiescent-reclamation accounting, disjoint-range concurrent
   correctness, and mixed concurrent stress with the UAF detector
   armed — across the (structure x scheme) matrix of the paper's
   evaluation. *)

open Smr

module IntMap = Map.Make (Int)

let cfg_base =
  { Config.default with nthreads = 4; slots = 4; batch_min = 8; check_uaf = true }

(* --- sequential model ------------------------------------------------ *)

let model_test (module M : Dstruct.Map_intf.S) ~ops ~seed () =
  let m = M.create ~cfg:cfg_base () in
  let rng = Prims.Rng.create ~seed in
  let model = ref IntMap.empty in
  let key_range = 200 in
  for _ = 1 to ops do
    let k = Prims.Rng.below rng key_range in
    let v = Prims.Rng.next rng in
    M.enter m ~tid:0;
    (match Prims.Rng.below rng 4 with
    | 0 ->
        let expected = not (IntMap.mem k !model) in
        let got = M.insert m ~tid:0 k v in
        if got then model := IntMap.add k v !model;
        Alcotest.(check bool) "insert agrees" expected got
    | 1 ->
        let expected = IntMap.mem k !model in
        let got = M.remove m ~tid:0 k in
        if got then model := IntMap.remove k !model;
        Alcotest.(check bool) "remove agrees" expected got
    | 2 ->
        let expected = IntMap.find_opt k !model in
        let got = M.get m ~tid:0 k in
        Alcotest.(check (option int)) "get agrees" expected got
    | _ ->
        let expected = not (IntMap.mem k !model) in
        let got = M.put m ~tid:0 k v in
        model := IntMap.add k v !model;
        Alcotest.(check bool) "put agrees" expected got);
    M.leave m ~tid:0
  done;
  M.check m;
  let expected = IntMap.bindings !model in
  Alcotest.(check (list (pair int int))) "final contents" expected
    (M.to_sorted_list m);
  Alcotest.(check int) "size" (IntMap.cardinal !model) (M.size m)

(* --- quiescent reclamation ------------------------------------------- *)

let reclaim_test (module M : Dstruct.Map_intf.S) () =
  let m = M.create ~cfg:cfg_base () in
  (* Fill, churn, then empty the structure completely. *)
  for k = 0 to 299 do
    M.enter m ~tid:0;
    ignore (M.insert m ~tid:0 k k);
    M.leave m ~tid:0
  done;
  for k = 0 to 299 do
    M.enter m ~tid:0;
    ignore (M.remove m ~tid:0 k);
    M.leave m ~tid:0
  done;
  for tid = 0 to cfg_base.nthreads - 1 do
    M.flush m ~tid;
    M.flush m ~tid
  done;
  Alcotest.(check int) "structure empty" 0 (M.size m);
  let s = Stats.snapshot (M.stats m) in
  Alcotest.(check bool) "something was retired" true (s.Stats.retires > 0);
  Alcotest.(check int) "all retired blocks freed" s.Stats.retires s.Stats.frees

(* --- disjoint-range concurrency -------------------------------------- *)

let disjoint_test (module M : Dstruct.Map_intf.S) () =
  let m = M.create ~cfg:cfg_base () in
  let per = 250 in
  let worker tid () =
    let base = tid * per in
    for i = 0 to per - 1 do
      M.enter m ~tid;
      assert (M.insert m ~tid (base + i) tid);
      M.leave m ~tid
    done;
    (* Everything this thread inserted is visible to it. *)
    for i = 0 to per - 1 do
      M.enter m ~tid;
      assert (M.get m ~tid (base + i) = Some tid);
      M.leave m ~tid
    done;
    (* Remove the even half. *)
    for i = 0 to per - 1 do
      if i mod 2 = 0 then begin
        M.enter m ~tid;
        assert (M.remove m ~tid (base + i));
        M.leave m ~tid
      end
    done
  in
  let ds = List.init cfg_base.nthreads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  M.check m;
  (* Exactly the odd keys of every range remain. *)
  let expected =
    List.concat_map
      (fun tid ->
        List.filter_map
          (fun i -> if i mod 2 = 1 then Some ((tid * per) + i, tid) else None)
          (List.init per Fun.id))
      (List.init cfg_base.nthreads Fun.id)
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "surviving bindings" expected
    (M.to_sorted_list m)

(* --- mixed concurrent stress ----------------------------------------- *)

let stress_test (module M : Dstruct.Map_intf.S) ~leaky ~ops () =
  let m = M.create ~cfg:cfg_base () in
  let key_range = 512 in
  let worker tid () =
    let rng = Prims.Rng.create ~seed:(1000 + tid) in
    for _ = 1 to ops do
      let k = Prims.Rng.below rng key_range in
      M.enter m ~tid;
      (match Prims.Rng.below rng 10 with
      | 0 | 1 | 2 | 3 -> ignore (M.insert m ~tid k tid)
      | 4 | 5 | 6 | 7 -> ignore (M.remove m ~tid k)
      | _ -> ignore (M.get m ~tid k));
      M.leave m ~tid
    done
  in
  let ds = List.init cfg_base.nthreads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  M.check m;
  for tid = 0 to cfg_base.nthreads - 1 do
    M.flush m ~tid;
    M.flush m ~tid
  done;
  let s = Stats.snapshot (M.stats m) in
  if not leaky then
    Alcotest.(check int) "all retired blocks freed at quiescence"
      s.Stats.retires s.Stats.frees;
  (* The sorted view is coherent (strictly increasing keys). *)
  let keys = List.map fst (M.to_sorted_list m) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "keys strictly sorted" true (sorted keys)

(* --- recycle-heavy ABA stress ----------------------------------------- *)

(* The Harris-Michael core CASes on node identities, and nodes are
   recycled through a pool, so its ABA-freedom rests entirely on the
   SMR scheme keeping every node an operation names unfreed.  Sixteen
   keys under four domains recycle each node many times over while
   other domains still hold it as a predecessor or CAS witness; a
   reclamation hole shows as a use-after-free, a lost or duplicated
   node (size mismatch), or a binding grafted onto the wrong key. *)
let aba_stress_test (module M : Dstruct.Map_intf.S) () =
  let m = M.create ~cfg:cfg_base () in
  let keys = 16 and ops = 10_000 in
  let worker tid () =
    let rng = Prims.Rng.create ~seed:(77 + tid) in
    let net = ref 0 in
    for _ = 1 to ops do
      let k = Prims.Rng.below rng keys in
      M.enter m ~tid;
      (match Prims.Rng.below rng 3 with
      | 0 -> if M.insert m ~tid k k then incr net
      | 1 -> if M.remove m ~tid k then decr net
      | _ -> (
          match M.get m ~tid k with
          | Some v when v <> k -> failwith (Printf.sprintf "get %d -> %d" k v)
          | _ -> ()));
      M.leave m ~tid
    done;
    !net
  in
  let ds = List.init cfg_base.nthreads (fun tid -> Domain.spawn (worker tid)) in
  let net = List.fold_left (fun acc d -> acc + Domain.join d) 0 ds in
  M.check m;
  let bindings = M.to_sorted_list m in
  List.iter (fun (k, v) -> Alcotest.(check int) "binding k -> k" k v) bindings;
  Alcotest.(check int) "size = net successful inserts" net (List.length bindings);
  Alcotest.(check int) "size agrees" net (M.size m)

(* --- trim-chained operation mode (Figure 10b's access pattern) ------- *)

let trim_mode_test (module M : Dstruct.Map_intf.S) () =
  let m = M.create ~cfg:cfg_base () in
  (* One bracket around many operations, trim between them. *)
  M.enter m ~tid:0;
  for k = 0 to 199 do
    ignore (M.insert m ~tid:0 k k);
    M.trim m ~tid:0
  done;
  for k = 0 to 199 do
    ignore (M.remove m ~tid:0 k);
    M.trim m ~tid:0
  done;
  M.leave m ~tid:0;
  M.flush m ~tid:0;
  M.flush m ~tid:0;
  Alcotest.(check int) "empty" 0 (M.size m);
  let s = Stats.snapshot (M.stats m) in
  Alcotest.(check int) "reclaimed through trim" s.Stats.retires s.Stats.frees

(* --- matrix ----------------------------------------------------------- *)

type maker = (module Dstruct.Map_intf.MAKER)

let structures : (string * maker * bool (* hp_he_ok *)) list =
  [
    ("list", (module Dstruct.Harris_list.Make), true);
    ("hashmap", (module Dstruct.Hash_map.Make), true);
    ("bonsai", (module Dstruct.Bonsai.Make), false);
    ("nmtree", (module Dstruct.Nm_tree.Make), true);
  ]

let schemes : (string * (module Tracker.S) * bool (* is_hp_like *)) list =
  [
    ("leaky", (module Leaky), false);
    ("ebr", (module Ebr), false);
    ("hp", (module Hp), true);
    ("he", (module He), true);
    ("ibr", (module Ibr), false);
    ("hyaline", (module Hyaline_core.Hyaline), false);
    ("hyaline-llsc", (module Hyaline_core.Hyaline.Llsc), false);
    ("hyaline-1", (module Hyaline_core.Hyaline1), false);
    ("hyaline-s", (module Hyaline_core.Hyaline_s), false);
    ("hyaline-1s", (module Hyaline_core.Hyaline1s), false);
  ]

let suites =
  List.concat_map
    (fun (sname, (module Mk : Dstruct.Map_intf.MAKER), hp_ok) ->
      let cases =
        List.concat_map
          (fun (tname, (module T : Tracker.S), is_hp_like) ->
            if is_hp_like && not hp_ok then []
            else
              let map : (module Dstruct.Map_intf.S) = (module Mk (T)) in
              let leaky = tname = "leaky" in
              [
                Alcotest.test_case
                  (Printf.sprintf "%s: sequential model" tname)
                  `Quick
                  (model_test map ~ops:1_500 ~seed:42);
              ]
              @ (if leaky then []
                 else
                   [
                     Alcotest.test_case
                       (Printf.sprintf "%s: quiescent reclamation" tname)
                       `Quick (reclaim_test map);
                     Alcotest.test_case
                       (Printf.sprintf "%s: trim-chained ops" tname)
                       `Quick (trim_mode_test map);
                   ])
              @ [
                  Alcotest.test_case
                    (Printf.sprintf "%s: disjoint concurrent" tname)
                    `Slow (disjoint_test map);
                  Alcotest.test_case
                    (Printf.sprintf "%s: mixed stress" tname)
                    `Slow
                    (stress_test map ~leaky ~ops:2_000);
                ])
          schemes
      in
      [ ("dstruct." ^ sname, cases) ])
    structures

let aba_suite =
  let schemes : (string * (module Tracker.S)) list =
    [
      ("hp", (module Hp));
      ("he", (module He));
      ("ibr", (module Ibr));
      ("hyaline-s", (module Hyaline_core.Hyaline_s));
      ("crystalline", (module Hyaline_core.Crystalline));
    ]
  in
  let structures : (string * maker) list =
    [
      ("list", (module Dstruct.Harris_list.Make));
      ("hashmap", (module Dstruct.Hash_map.Make));
    ]
  in
  ( "dstruct.aba",
    List.concat_map
      (fun (sname, (module Mk : Dstruct.Map_intf.MAKER)) ->
        List.map
          (fun (tname, (module T : Tracker.S)) ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s: recycle-heavy stress" sname tname)
              `Slow
              (aba_stress_test (module Mk (T))))
          schemes)
      structures )

(* --- the insert path ---------------------------------------------------- *)

(* An insert allocates its node only once the search has found the key
   absent, so inserting a present key touches neither the node pool nor
   the tracker's alloc hook (Hyaline-S's era clock ticks there). *)
let test_insert_present_no_alloc () =
  let module C = Dstruct.Hm_core.Make (Hyaline_core.Hyaline_s) in
  let core = C.make_core cfg_base in
  let head = Atomic.make C.Nil in
  let insert k =
    Hyaline_core.Hyaline_s.enter core.C.tracker ~tid:0;
    let r = C.insert_in core ~tid:0 ~head k k in
    Hyaline_core.Hyaline_s.leave core.C.tracker ~tid:0;
    r
  in
  List.iter (fun k -> Alcotest.(check bool) "fresh key" true (insert k)) [ 3; 5; 7 ];
  let pool0 = C.Pool.stats core.C.pool in
  let smr0 = Stats.snapshot (Hyaline_core.Hyaline_s.stats core.C.tracker) in
  List.iter (fun k -> Alcotest.(check bool) "present key" false (insert k)) [ 3; 5; 7 ];
  let pool1 = C.Pool.stats core.C.pool in
  let smr1 = Stats.snapshot (Hyaline_core.Hyaline_s.stats core.C.tracker) in
  Alcotest.(check int) "Mpool allocs unchanged" pool0.Mpool.allocs pool1.Mpool.allocs;
  Alcotest.(check int) "Mpool frees unchanged" pool0.Mpool.frees pool1.Mpool.frees;
  Alcotest.(check int) "Smr.Stats allocs unchanged" smr0.Stats.allocs smr1.Stats.allocs;
  Alcotest.(check int) "size" 3 (C.size_in ~head)

(* EBR whose alloc hook can run one injected action: the allocation of
   an insert's node sits between its search and its CAS, so an action
   there is a concurrent operation landing exactly in that window. *)
module Hooked_ebr = struct
  include Ebr

  let on_alloc = ref ignore

  let alloc_hook t ~tid h =
    Ebr.alloc_hook t ~tid h;
    let f = !on_alloc in
    on_alloc := ignore;
    f ()
end

let test_lost_cas_reuses_node ~put () =
  let module C = Dstruct.Hm_core.Make (Hooked_ebr) in
  let add = if put then C.put_in else C.insert_in in
  let core = C.make_core cfg_base in
  let head = Atomic.make C.Nil in
  let fired = ref false in
  (* tid 0 inserts 5 into the empty list: its search ends at (head,
     Nil); while it allocates, tid 1 inserts 3 at the head, so tid 0's
     CAS on the head loses and it must retry behind 3. *)
  Hooked_ebr.on_alloc :=
    (fun () ->
      fired := true;
      Hooked_ebr.enter core.C.tracker ~tid:1;
      Alcotest.(check bool) "racing insert" true (C.insert_in core ~tid:1 ~head 3 3);
      Hooked_ebr.leave core.C.tracker ~tid:1);
  Hooked_ebr.enter core.C.tracker ~tid:0;
  Alcotest.(check bool) "new binding after a lost CAS" true (add core ~tid:0 ~head 5 5);
  Hooked_ebr.leave core.C.tracker ~tid:0;
  Alcotest.(check bool) "race injected" true !fired;
  Alcotest.(check (list (pair int int))) "both keys" [ (3, 3); (5, 5) ] (C.to_list_in ~head);
  let pool = C.Pool.stats core.C.pool in
  let smr = Stats.snapshot (Hooked_ebr.stats core.C.tracker) in
  Alcotest.(check int) "one node per operation (Mpool)" 2 pool.Mpool.allocs;
  Alcotest.(check int) "no discarded node" 0 pool.Mpool.frees;
  Alcotest.(check int) "one node per operation (Smr.Stats)" 2 smr.Stats.allocs;
  C.check_in ~head

let insert_path_suite =
  ( "dstruct.insert-path",
    [
      Alcotest.test_case "present key allocates nothing" `Quick
        test_insert_present_no_alloc;
      Alcotest.test_case "insert: lost CAS reuses its one node" `Quick
        (test_lost_cas_reuses_node ~put:false);
      Alcotest.test_case "put: lost CAS reuses its one node" `Quick
        (test_lost_cas_reuses_node ~put:true);
    ] )

let suites = suites @ [ aba_suite; insert_path_suite ]
