(* The benchmark's own tests: BENCHMARK.json declares exactly the
   catalog's metrics, a short run of every workload emits every declared
   metric, the answer checker counts a stale reply as a failure, and two
   runs with the same seed agree on every modelled metric. *)

open Perfbench
module Tweet = Lsm_workload.Tweet

let slo = { Work.limit_us = 200_000.0; ladder = { Lat.rungs = 2; steps = 1 } }

let short ~trace workload =
  Bench.run ~systems:1 ~host_rounds:1 ~workload ~seed:3
    ~seconds:0.0 ~trace ~slo ()

let emits_every_metric ~trace workload () =
  let r = short ~trace workload in
  let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
  Alcotest.(check (list string))
    "metric names" (List.map (fun (n, _, _) -> n) catalog)
    (List.map fst r.Bench.metrics);
  List.iter
    (fun (n, v) ->
      if not (Float.is_finite v) then Alcotest.failf "%s is not finite" n)
    r.Bench.metrics;
  Alcotest.(check int) "failed" 0 r.Bench.failed;
  Alcotest.(check bool) "correct" true r.Bench.correct;
  if not trace then
    List.iter
      (fun (n, v) ->
        if v <= 0.0 then Alcotest.failf "end-to-end metric %s is %g" n v)
      r.Bench.metrics

module J = Lsm_obs.Json

let declared key =
  let doc =
    match J.read ~path:"../BENCHMARK.json" with
    | Ok d -> d
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let field k m = Option.bind (J.member k m) J.to_string_opt |> Option.get in
  Option.bind (J.member key doc) J.to_list
  |> Option.get
  |> List.map (fun m -> (field "name" m, field "unit" m, field "better" m))

let benchmark_json_matches () =
  let as_strings = List.map (fun (n, u, b) -> (n, u, Catalog.better_name b)) in
  let t3 = Alcotest.(list (triple string string string)) in
  Alcotest.check t3 "end_to_end" (as_strings Catalog.end_to_end) (declared "end_to_end");
  Alcotest.check t3 "per_layer" (as_strings Catalog.per_layer) (declared "per_layer")

let tw ~pk ~user ~at =
  { Tweet.id = pk; user_id = user; location = 0; created_at = at; msg_len = 100 }

let stale_reply_counts () =
  let s = Shadow.create () in
  let old = tw ~pk:1 ~user:10 ~at:1 and cur = tw ~pk:1 ~user:20 ~at:2 in
  Shadow.ack s old;
  Shadow.ack s cur;
  Shadow.check_point s 1 (Some cur);
  Shadow.check_point s 1 (Some old);
  Shadow.check_secondary s ~lo:10 ~hi:10 [ old ];
  Shadow.check_scan s ~tlo:0 ~thi:5 [ cur ];
  Alcotest.(check int) "attempted" 4 s.Shadow.attempted;
  Alcotest.(check int) "failed" 2 s.Shadow.failed

(* Groups of 8 operations of 100 us, each acknowledged only when the last
   of its group ends: at a low rate the wait for the group to fill breaks
   a 10 ms limit, near capacity it does not, so a plain bisection from
   the bottom finds nothing and the ladder finds the top of the range. *)
let group_wait_counts () =
  let n = 4000 in
  let service = Array.make n 100.0 in
  let acks = Array.init n (fun i -> { Lat.op = min (n - 1) ((i / 8 * 8) + 7); at_us = 100.0 }) in
  let gaps = Lat.exp_gaps ~seed:1 n in
  let ok rate = Lat.replay_ok ~service ~acks ~gaps ~rate ~limit_us:10_000.0 in
  Alcotest.(check bool) "100/s misses" false (ok 100.0);
  Alcotest.(check bool) "5000/s meets" true (ok 5000.0);
  let search rungs = Lat.highest ~lo:625.0 ~hi:10_000.0 { Lat.rungs; steps = 8 } ok in
  Alcotest.(check (float 0.0)) "bisection from the bottom" 0.0 (search 1);
  let top = search 16 in
  if not (top > 5000.0 && top < 10_000.0) then Alcotest.failf "ladder found %g" top

let modelled =
  [ "sim_ops_per_s"; "max_rps_at_slo"; "p50_us"; "p99_us"; "ingest_p99_us";
    "point_p99_us"; "multi_p99_us"; "secondary_p99_us"; "scan_p99_us";
    "write_amp" ]

let same_seed_same_model workload () =
  let pick r = List.filter (fun (n, _) -> List.mem n modelled) r.Bench.metrics in
  let a = pick (short ~trace:false workload) and b = pick (short ~trace:false workload) in
  Alcotest.(check (list (pair string (float 0.0)))) "modelled metrics" a b

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        List.map
          (fun w -> Alcotest.test_case w `Slow (emits_every_metric ~trace:false w))
          [ "ingest"; "query"; "serve" ]
        @ [ Alcotest.test_case "traced ingest" `Slow (emits_every_metric ~trace:true "ingest") ]
      );
      ( "declared",
        [ Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json_matches ] );
      ("checker", [ Alcotest.test_case "stale reply" `Quick stale_reply_counts ]);
      ("replay", [ Alcotest.test_case "group wait" `Quick group_wait_counts ]);
      ( "determinism",
        [ Alcotest.test_case "ingest" `Slow (same_seed_same_model "ingest") ] );
    ]
