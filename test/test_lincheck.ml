(* Linearizability: checker unit tests (accepting and rejecting
   hand-crafted histories), a property that sequential histories are
   always accepted, and live checks of every benchmark structure under
   real concurrency. *)

open Lincheck

let qcheck = QCheck_alcotest.to_alcotest

let ev tid op result inv res = { History.tid; op; result; inv; res }

(* ------------------------------------------------------------------ *)
(* Checker on crafted histories *)

let test_empty_history () =
  Alcotest.(check bool) "empty ok" true (History.check [])

let test_sequential_history () =
  let evs =
    [
      ev 0 (History.Insert (1, 10)) (History.Bool true) 0 1;
      ev 0 (History.Get 1) (History.Opt (Some 10)) 2 3;
      ev 0 (History.Remove 1) (History.Bool true) 4 5;
      ev 0 (History.Get 1) (History.Opt None) 6 7;
    ]
  in
  Alcotest.(check bool) "sequential accepted" true (History.check evs)

let test_overlapping_linearizable () =
  (* Two overlapping inserts of the same key: exactly one succeeds —
     linearizable in either order. *)
  let evs =
    [
      ev 0 (History.Insert (5, 1)) (History.Bool true) 0 3;
      ev 1 (History.Insert (5, 2)) (History.Bool false) 1 2;
    ]
  in
  Alcotest.(check bool) "one wins" true (History.check evs)

let test_stale_read_rejected () =
  (* get(1) invoked strictly after insert(1) responded must see it. *)
  let evs =
    [
      ev 0 (History.Insert (1, 10)) (History.Bool true) 0 1;
      ev 1 (History.Get 1) (History.Opt None) 2 3;
    ]
  in
  Alcotest.(check bool) "stale read rejected" false (History.check evs)

let test_double_success_rejected () =
  (* Non-overlapping inserts of one key cannot both succeed. *)
  let evs =
    [
      ev 0 (History.Insert (7, 1)) (History.Bool true) 0 1;
      ev 1 (History.Insert (7, 2)) (History.Bool true) 2 3;
    ]
  in
  Alcotest.(check bool) "double insert rejected" false (History.check evs)

let test_phantom_remove_rejected () =
  let evs = [ ev 0 (History.Remove 3) (History.Bool true) 0 1 ] in
  Alcotest.(check bool) "remove from empty rejected" false (History.check evs)

let test_put_value_visibility () =
  (* Overlapping put and get: get may see either old or new value, but
     a get after both puts responded must see the latest. *)
  let ok =
    [
      ev 0 (History.Put (1, 10)) (History.Bool true) 0 1;
      ev 0 (History.Put (1, 20)) (History.Bool false) 2 3;
      ev 1 (History.Get 1) (History.Opt (Some 20)) 4 5;
    ]
  in
  Alcotest.(check bool) "latest value" true (History.check ok);
  let bad =
    [
      ev 0 (History.Put (1, 10)) (History.Bool true) 0 1;
      ev 0 (History.Put (1, 20)) (History.Bool false) 2 3;
      ev 1 (History.Get 1) (History.Opt (Some 10)) 4 5;
    ]
  in
  Alcotest.(check bool) "old value after new put rejected" false
    (History.check bad)

let test_concurrent_get_ambiguity_accepted () =
  (* A get overlapping an insert may or may not see it. *)
  let sees =
    [
      ev 0 (History.Insert (1, 9)) (History.Bool true) 0 3;
      ev 1 (History.Get 1) (History.Opt (Some 9)) 1 2;
    ]
  in
  let misses =
    [
      ev 0 (History.Insert (1, 9)) (History.Bool true) 0 3;
      ev 1 (History.Get 1) (History.Opt None) 1 2;
    ]
  in
  Alcotest.(check bool) "sees" true (History.check sees);
  Alcotest.(check bool) "misses" true (History.check misses)

let test_too_long_rejected () =
  let evs =
    List.init 63 (fun i -> ev 0 (History.Get 0) (History.Opt None) (2 * i) ((2 * i) + 1))
  in
  match History.check evs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "63-event history should be refused"

(* Any genuinely sequential random history replayed through the spec
   must be accepted. *)
let prop_sequential_always_ok =
  QCheck.Test.make ~name:"sequential histories linearizable" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30) (pair (int_range 0 3) (int_range 0 5)))
    (fun script ->
      let module IntMap = Map.Make (Int) in
      let state = ref IntMap.empty in
      let time = ref 0 in
      let evs =
        List.map
          (fun (opc, k) ->
            let op =
              match opc with
              | 0 -> History.Insert (k, k * 7)
              | 1 -> History.Remove k
              | 2 -> History.Get k
              | _ -> History.Put (k, k * 13)
            in
            let result =
              match op with
              | History.Insert (k, v) ->
                  if IntMap.mem k !state then History.Bool false
                  else begin
                    state := IntMap.add k v !state;
                    History.Bool true
                  end
              | History.Remove k ->
                  if IntMap.mem k !state then begin
                    state := IntMap.remove k !state;
                    History.Bool true
                  end
                  else History.Bool false
              | History.Get k -> History.Opt (IntMap.find_opt k !state)
              | History.Put (k, v) ->
                  let fresh = not (IntMap.mem k !state) in
                  state := IntMap.add k v !state;
                  History.Bool fresh
            in
            let inv = !time in
            let res = !time + 1 in
            time := !time + 2;
            ev 0 op result inv res)
          script
      in
      History.check evs)

(* ------------------------------------------------------------------ *)
(* Live structures under real concurrency. *)

let live_cfg =
  { Smr.Config.default with nthreads = 3; slots = 2; batch_min = 4; check_uaf = true }

let live_check name (module M : Dstruct.Map_intf.S) () =
  (* Tiny key range to force contention; several seeds. *)
  for seed = 1 to 8 do
    let evs =
      Run.run_map (module M) ~cfg:live_cfg ~threads:3 ~ops_per_thread:12
        ~key_range:3 ~seed
    in
    Alcotest.(check int)
      (Printf.sprintf "%s seed %d: all ops recorded" name seed)
      36 (List.length evs);
    History.check_exn evs
  done

module Hashmap_hyaline = Dstruct.Hash_map.Make (Hyaline_core.Hyaline)
module Hashmap_hyaline_packed = Dstruct.Hash_map.Make (Hyaline_core.Hyaline.Packed)
module Hashmap_hp = Dstruct.Hash_map.Make (Smr.Hp)
module Hashmap_hyaline_s = Dstruct.Hash_map.Make (Hyaline_core.Hyaline_s)
module List_hyaline_s = Dstruct.Harris_list.Make (Hyaline_core.Hyaline_s)
module List_ebr = Dstruct.Harris_list.Make (Smr.Ebr)
module Bonsai_hyaline = Dstruct.Bonsai.Make (Hyaline_core.Hyaline)
module Bonsai_ibr = Dstruct.Bonsai.Make (Smr.Ibr)
module Nm_hyaline1s = Dstruct.Nm_tree.Make (Hyaline_core.Hyaline1s)
module Nm_he = Dstruct.Nm_tree.Make (Smr.He)
module Hashmap_crystalline = Dstruct.Hash_map.Make (Hyaline_core.Crystalline)
module List_crystalline_packed =
  Dstruct.Harris_list.Make (Hyaline_core.Crystalline.Packed)

let suites =
  [
    ( "lincheck.checker",
      [
        Alcotest.test_case "empty" `Quick test_empty_history;
        Alcotest.test_case "sequential" `Quick test_sequential_history;
        Alcotest.test_case "overlapping inserts" `Quick
          test_overlapping_linearizable;
        Alcotest.test_case "stale read rejected" `Quick
          test_stale_read_rejected;
        Alcotest.test_case "double insert rejected" `Quick
          test_double_success_rejected;
        Alcotest.test_case "phantom remove rejected" `Quick
          test_phantom_remove_rejected;
        Alcotest.test_case "put value visibility" `Quick
          test_put_value_visibility;
        Alcotest.test_case "concurrent get ambiguity" `Quick
          test_concurrent_get_ambiguity_accepted;
        Alcotest.test_case "length cap" `Quick test_too_long_rejected;
        qcheck prop_sequential_always_ok;
      ] );
    ( "lincheck.live",
      [
        Alcotest.test_case "hashmap/Hyaline" `Slow
          (live_check "hashmap/Hyaline" (module Hashmap_hyaline));
        Alcotest.test_case "hashmap/Hyaline(packed)" `Slow
          (live_check "hashmap/Hyaline(packed)" (module Hashmap_hyaline_packed));
        Alcotest.test_case "hashmap/HP" `Slow
          (live_check "hashmap/HP" (module Hashmap_hp));
        Alcotest.test_case "hashmap/Hyaline-S" `Slow
          (live_check "hashmap/Hyaline-S" (module Hashmap_hyaline_s));
        Alcotest.test_case "list/Hyaline-S" `Slow
          (live_check "list/Hyaline-S" (module List_hyaline_s));
        Alcotest.test_case "list/Epoch" `Slow
          (live_check "list/Epoch" (module List_ebr));
        Alcotest.test_case "bonsai/Hyaline" `Slow
          (live_check "bonsai/Hyaline" (module Bonsai_hyaline));
        Alcotest.test_case "bonsai/IBR" `Slow
          (live_check "bonsai/IBR" (module Bonsai_ibr));
        Alcotest.test_case "nmtree/Hyaline-1S" `Slow
          (live_check "nmtree/Hyaline-1S" (module Nm_hyaline1s));
        Alcotest.test_case "nmtree/HE" `Slow
          (live_check "nmtree/HE" (module Nm_he));
        Alcotest.test_case "hashmap/Crystalline" `Slow
          (live_check "hashmap/Crystalline" (module Hashmap_crystalline));
        Alcotest.test_case "list/Crystalline(packed)" `Slow
          (live_check "list/Crystalline(packed)"
             (module List_crystalline_packed));
      ] );
  ]
