(* Self-test of the benchmark's own statistics and answer checking. *)

module Stats = Perfbench.Stats
module Check = Perfbench.Check

let feq = Alcotest.float 1e-9

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50 of 1..100" 50. (Stats.percentile xs 50.);
  Alcotest.check feq "p99 of 1..100" 99. (Stats.percentile xs 99.);
  Alcotest.check feq "p90 of 1..100" 90. (Stats.percentile xs 90.);
  Alcotest.(check int) "samples above p99" 1 (Stats.above xs 99.);
  Alcotest.(check int) "samples above p90" 10 (Stats.above xs 90.);
  (* nearest rank on an unsorted odd-sized set *)
  Alcotest.check feq "p50 of 5,1,3" 3. (Stats.percentile [ 5.; 1.; 3. ] 50.);
  Alcotest.check feq "p99 of 5,1,3" 5. (Stats.percentile [ 5.; 1.; 3. ] 99.);
  Alcotest.(check bool) "no samples" true (Float.is_nan (Stats.percentile [] 50.));
  Alcotest.check feq "median of an even set" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

(* expected values from Python: statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let q xs = Stats.quartiles xs in
  let check name (a, b, c) (x, y, z) =
    Alcotest.check feq (name ^ " q1") a x;
    Alcotest.check feq (name ^ " q2") b y;
    Alcotest.check feq (name ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  check "five" (0.75, 2.0, 5.375) (q [ 0.5; 2.0; 7.25; 1.0; 3.5 ]);
  check "two" (0.25, 2.5, 4.75) (q [ 4.0; 1.0 ])

let ok_select rows =
  List.map (fun r -> "ROW " ^ r) rows @ [ Printf.sprintf "OK SELECT rows=%d snapshot=7" (List.length rows) ]

let is_error = function Ok () -> false | Error _ -> true

let test_point_checker () =
  Alcotest.(check bool) "right distance" false (is_error (Check.point ~expected:(Some 3) (ok_select [ "3" ])));
  Alcotest.(check bool) "corrupted distance" true (is_error (Check.point ~expected:(Some 3) (ok_select [ "4" ])));
  (* the shape of the shared-workspace defect: empty where the distance is 3 *)
  Alcotest.(check bool) "empty answer" true (is_error (Check.point ~expected:(Some 3) (ok_select [])));
  Alcotest.(check bool) "unreachable" false (is_error (Check.point ~expected:None (ok_select [])));
  Alcotest.(check bool) "phantom path" true (is_error (Check.point ~expected:None (ok_select [ "2" ])));
  Alcotest.(check (option int)) "snapshot" (Some 7) (Sqlgraph_server.Client.snapshot (ok_select [ "3" ]))

let test_batch_checker () =
  let want = [ "1\t2\t3"; "4\t5\t1" ] in
  Alcotest.(check bool) "any order" false (is_error (Check.batch ~expected:want (ok_select [ "4\t5\t1"; "1\t2\t3" ])));
  Alcotest.(check bool) "corrupted cost" true (is_error (Check.batch ~expected:want (ok_select [ "4\t5\t2"; "1\t2\t3" ])));
  Alcotest.(check bool) "missing row" true (is_error (Check.batch ~expected:want (ok_select [ "1\t2\t3" ])));
  Alcotest.(check bool) "same rows" false (is_error (Check.same_rows ~expected:want (ok_select want)));
  Alcotest.(check bool) "reordered rows" true
    (is_error (Check.same_rows ~expected:want (ok_select (List.rev want))));
  Alcotest.(check bool) "dml count" false (is_error (Check.dml ~verb:"DELETE" ~count:1 [ "OK DELETE 1 snapshot=3" ]));
  Alcotest.(check bool) "dml wrong count" true (is_error (Check.dml ~verb:"DELETE" ~count:1 [ "OK DELETE 0 snapshot=3" ]))

(* A real engine answer passes, the same answer with its distance
   corrupted does not. *)
let test_engine_answer () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (src INTEGER, dst INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (1, 2), (2, 3), (3, 4), (1, 5)");
  let lines =
    match Sqlgraph.Db.exec db "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 4 OVER e EDGE (src, dst)" with
    | Ok o -> Sqlgraph_server.Protocol.ok_outcome ~snapshot:0 o
    | Error e -> Alcotest.fail (Sqlgraph.Error.to_string e)
  in
  Alcotest.(check bool) "engine answer" false (is_error (Check.point ~expected:(Some 3) lines));
  let corrupted = List.map (fun l -> if l = "ROW 3" then "ROW 2" else l) lines in
  Alcotest.(check bool) "corrupted engine answer" true (is_error (Check.point ~expected:(Some 3) corrupted))

(* The churn oracle agrees with the native BFS baseline on a random
   multigraph, and follows inserts and deletes. *)
let test_dyn_oracle () =
  let rng = Random.State.make [| 42 |] in
  let ids = Array.init 60 (fun i -> (i * 7) + 100) in
  let edges =
    Array.init 150 (fun _ -> (ids.(Random.State.int rng 60), ids.(Random.State.int rng 60)))
  in
  let g = Check.Dyn.of_edges ~ids edges in
  let table =
    Storage.Table.of_rows
      (Storage.Schema.of_pairs [ ("src", Storage.Dtype.TInt); ("dst", Storage.Dtype.TInt) ])
      (Array.to_list (Array.map (fun (s, d) -> [ Storage.Value.Int s; Storage.Value.Int d ]) edges))
  in
  let native = Baselines.Native_bfs.of_table table ~src_col:"src" ~dst_col:"dst" in
  Array.iter
    (fun s ->
      Array.iter
        (fun d ->
          if s <> d then
            Alcotest.(check (option int))
              (Printf.sprintf "%d -> %d" s d)
              (Baselines.Native_bfs.distance native ~source:s ~target:d)
              (Check.Dyn.distance g ~source:s ~target:d))
        ids)
    ids;
  let a = ids.(0) and b = ids.(1) in
  ignore (Check.Dyn.remove_all g a b);
  Check.Dyn.add g a b;
  Check.Dyn.add g a b;
  Alcotest.(check (option int)) "inserted edge" (Some 1) (Check.Dyn.distance g ~source:a ~target:b);
  Alcotest.(check int) "delete removes every copy" 2 (Check.Dyn.remove_all g a b);
  Alcotest.(check bool) "deleted edge" true (Check.Dyn.distance g ~source:a ~target:b <> Some 1)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "exact percentiles" `Quick test_percentiles;
          Alcotest.test_case "quartiles as statistics.quantiles" `Quick test_quartiles;
        ] );
      ( "check",
        [
          Alcotest.test_case "point answers" `Quick test_point_checker;
          Alcotest.test_case "batch and dml answers" `Quick test_batch_checker;
          Alcotest.test_case "corrupted engine answer" `Quick test_engine_answer;
          Alcotest.test_case "churn oracle" `Quick test_dyn_oracle;
        ] );
    ]
