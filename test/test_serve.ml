(* Tests for lib/serve: the global flush coordinator (budget invariant),
   open-loop arrival processes, and the driver's saturation/determinism
   contracts — the knee must be demonstrable: below capacity p99 stays
   bounded, above it queueing delay dominates. *)

module Budget = Lsm_serve.Budget
module Arrivals = Lsm_serve.Arrivals
module Driver = Lsm_serve.Driver

(* ------------------------------------------------------------------ *)
(* Budget coordinator, against synthetic partitions *)

let synthetic mems =
  let mem = Array.map ref mems in
  let flushed = ref [] in
  let parts =
    Array.mapi
      (fun i _ ->
        Budget.part
          ~mem_bytes:(fun () -> !(mem.(i)))
          ~flush:(fun () ->
            flushed := i :: !flushed;
            mem.(i) := 0)
          ())
      mem
  in
  (flushed, parts)

let test_budget_evicts_largest () =
  let flushed, parts = synthetic [| 10; 20; 5 |] in
  let b = Budget.create ~budget_bytes:30 parts in
  Budget.enforce b;
  Alcotest.(check (list int)) "largest memtable flushed" [ 1 ] !flushed;
  Alcotest.(check int) "total back under budget" 15 (Budget.total b);
  Alcotest.(check int) "one eviction" 1 (Budget.evictions b);
  Alcotest.(check int) "pre-enforcement peak" 35 (Budget.peak_pre_bytes b);
  Alcotest.(check int) "post-enforcement peak" 15 (Budget.peak_bytes b);
  (* Below budget enforce is a no-op. *)
  Budget.enforce b;
  Alcotest.(check int) "no spurious eviction" 1 (Budget.evictions b)

let test_budget_cascades () =
  let flushed, parts = synthetic [| 10; 20; 5 |] in
  let b = Budget.create ~budget_bytes:12 parts in
  Budget.enforce b;
  (* 35 >= 12: flush p1 (20) -> 15 >= 12: flush p0 (10) -> 5 < 12. *)
  Alcotest.(check (list int)) "argmax order" [ 1; 0 ] (List.rev !flushed);
  Alcotest.(check int) "two evictions" 2 (Budget.evictions b);
  Alcotest.(check bool) "invariant restored" true
    (Budget.total b < Budget.budget_bytes b)

let test_budget_ties_break_low () =
  let flushed, parts = synthetic [| 7; 7 |] in
  let b = Budget.create ~budget_bytes:10 parts in
  Budget.enforce b;
  Alcotest.(check (list int)) "lowest index wins the tie" [ 0 ] !flushed

let test_budget_validates () =
  let _, parts = synthetic [| 1 |] in
  Alcotest.check_raises "budget >= 1"
    (Invalid_argument "Budget.create: budget_bytes >= 1") (fun () ->
      ignore (Budget.create ~budget_bytes:0 parts));
  Alcotest.check_raises "no partitions"
    (Invalid_argument "Budget.create: no partitions") (fun () ->
      ignore (Budget.create ~budget_bytes:1 [||]))

(* Sharded partitions: eviction flushes the largest *shard*, never a
   whole partition's memtables — the overshoot fix.  Mirrors
   [synthetic] with per-shard byte counters. *)
let synthetic_sharded parts_shards =
  let mem = Array.map Array.copy parts_shards in
  let flushed = ref [] in
  let parts =
    Array.mapi
      (fun i shards ->
        Budget.part ~shards:(Array.length shards)
          ~mem_bytes:(fun () -> Array.fold_left ( + ) 0 mem.(i))
          ~shard_bytes:(fun s -> mem.(i).(s))
          ~flush_shard:(fun s ->
            flushed := (i, s) :: !flushed;
            mem.(i).(s) <- 0)
          ~flush:(fun () -> Array.fill mem.(i) 0 (Array.length mem.(i)) 0)
          ())
      mem
  in
  (flushed, parts)

let test_budget_evicts_largest_shard () =
  let flushed, parts = synthetic_sharded [| [| 8; 12 |]; [| 6; 9 |] |] in
  let b = Budget.create ~budget_bytes:30 parts in
  Budget.enforce b;
  Alcotest.(check (list (pair int int)))
    "largest shard only" [ (0, 1) ] !flushed;
  Alcotest.(check int) "sibling shards untouched" 23 (Budget.total b);
  Alcotest.(check int) "one eviction" 1 (Budget.evictions b)

let test_budget_shard_cascade () =
  let flushed, parts = synthetic_sharded [| [| 8; 12 |]; [| 6; 9 |] |] in
  let b = Budget.create ~budget_bytes:12 parts in
  Budget.enforce b;
  (* 35 >= 12: evict (0,1)=12 -> 23 >= 12: (1,1)=9 -> 14 >= 12: (0,0)=8
     -> 6 < 12.  Greedy largest-first crosses partitions freely. *)
  Alcotest.(check (list (pair int int)))
    "greedy largest-first across partitions"
    [ (0, 1); (1, 1); (0, 0) ]
    (List.rev !flushed);
  Alcotest.(check int) "three evictions" 3 (Budget.evictions b)

(* The overshoot regression this PR fixes: on an identical write
   sequence the shard-granular policy must not raise the
   pre-enforcement peak.  peak_pre is the budget plus whichever write
   trips it, so with aligned write sizes the two policies peak at
   exactly the same byte — while the sharded one evicts in smaller
   units (more, cheaper evictions instead of whole-memtable dumps). *)
let test_budget_shard_peak_pre_no_regress () =
  let drive ~shards =
    let n = max 1 shards in
    let mem = Array.make n 0 in
    let parts =
      [|
        Budget.part ~shards:n
          ~mem_bytes:(fun () -> Array.fold_left ( + ) 0 mem)
          ~shard_bytes:(fun s -> mem.(s))
          ~flush_shard:(fun s -> mem.(s) <- 0)
          ~flush:(fun () -> Array.fill mem 0 n 0)
          ();
      |]
    in
    let b = Budget.create ~budget_bytes:100 parts in
    for i = 0 to 39 do
      mem.(i mod n) <- mem.(i mod n) + 10;
      Budget.enforce b
    done;
    b
  in
  let b1 = drive ~shards:1 in
  let b4 = drive ~shards:4 in
  Alcotest.(check bool) "both configurations evicted" true
    (Budget.evictions b1 > 0 && Budget.evictions b4 > 0);
  Alcotest.(check int) "sharded peak_pre no worse"
    (Budget.peak_pre_bytes b1)
    (Budget.peak_pre_bytes b4);
  Alcotest.(check bool) "sharded evicts in smaller units" true
    (Budget.evictions b4 > Budget.evictions b1)

(* ------------------------------------------------------------------ *)
(* Arrival processes *)

let test_arrivals_uniform_exact () =
  let a = Arrivals.create ~rate_rps:1000.0 `Uniform in
  Alcotest.(check (float 1e-9)) "first" 1000.0 (Arrivals.next a);
  Alcotest.(check (float 1e-9)) "second" 2000.0 (Arrivals.next a);
  Alcotest.(check (float 1e-9)) "third" 3000.0 (Arrivals.next a)

let test_arrivals_poisson_mean () =
  let a = Arrivals.create ~seed:3 ~rate_rps:1000.0 `Poisson in
  let n = 20_000 in
  let prev = ref 0.0 in
  for _ = 1 to n do
    let t = Arrivals.next a in
    Alcotest.(check bool) "strictly increasing" true (t > !prev);
    prev := t
  done;
  (* Exponential gaps with mean 1000us: the empirical mean over 20k draws
     sits within a few sigma of 1000 (and the stream is seeded, so this
     is deterministic regardless). *)
  let mean_gap = !prev /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.1fus ~ 1000us" mean_gap)
    true
    (mean_gap > 950.0 && mean_gap < 1050.0)

let test_arrivals_seeded () =
  let a = Arrivals.create ~seed:11 ~rate_rps:500.0 `Poisson in
  let b = Arrivals.create ~seed:11 ~rate_rps:500.0 `Poisson in
  for _ = 1 to 1000 do
    Alcotest.(check (float 0.0)) "same stream" (Arrivals.next a)
      (Arrivals.next b)
  done

let test_arrivals_bursty_mean () =
  let a = Arrivals.create ~seed:3 ~rate_rps:1000.0 `Bursty in
  let n = 100_000 in
  let prev = ref 0.0 in
  let sumsq = ref 0.0 in
  for _ = 1 to n do
    let t = Arrivals.next a in
    Alcotest.(check bool) "strictly increasing" true (t > !prev);
    let gap = t -. !prev in
    sumsq := !sumsq +. (gap *. gap);
    prev := t
  done;
  (* The on/off modulation preserves the long-run mean rate exactly, so
     the empirical mean gap still sits near 1000us — but the gap
     distribution is a mixture of two exponentials, so its squared
     coefficient of variation exceeds Poisson's 1. *)
  let mean_gap = !prev /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.1fus ~ 1000us" mean_gap)
    true
    (mean_gap > 900.0 && mean_gap < 1100.0);
  let var = (!sumsq /. Float.of_int n) -. (mean_gap *. mean_gap) in
  let scv = var /. (mean_gap *. mean_gap) in
  Alcotest.(check bool)
    (Printf.sprintf "burstier than Poisson: scv %.2f > 1.2" scv)
    true (scv > 1.2)

let test_arrivals_bursty_seeded () =
  let a = Arrivals.create ~seed:11 ~rate_rps:500.0 `Bursty in
  let b = Arrivals.create ~seed:11 ~rate_rps:500.0 `Bursty in
  for _ = 1 to 1000 do
    Alcotest.(check (float 0.0)) "same stream" (Arrivals.next a)
      (Arrivals.next b)
  done

let test_arrivals_validate () =
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Arrivals.create: rate_rps must be > 0") (fun () ->
      ignore (Arrivals.create ~rate_rps:0.0 `Poisson));
  List.iter
    (fun k ->
      Alcotest.(check string)
        "kind roundtrip"
        (Arrivals.string_of_kind k)
        (Arrivals.string_of_kind
           (Arrivals.kind_of_string (Arrivals.string_of_kind k))))
    [ `Poisson; `Uniform; `Bursty ];
  match Arrivals.kind_of_string "fractal" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown kind must raise"

(* ------------------------------------------------------------------ *)
(* The open-loop driver *)

let tiny_cfg ?(rate = 1200.0) ?(duration = 0.25) ?(seed = 5) () =
  let cfg = Driver.config ~partitions:4 Lsm_harness.Scale.tiny in
  { cfg with Driver.rate_rps = rate; duration_s = duration; seed }

(* One run shared by the invariant/accounting/determinism checks. *)
let base_run = lazy (Driver.run (tiny_cfg ()))

let test_budget_invariant_under_load () =
  let r = Lazy.force base_run in
  Alcotest.(check bool) "coordinator fired" true (r.Driver.evictions > 0);
  Alcotest.(check bool)
    (Printf.sprintf "peak %d < budget %d" r.Driver.peak_mem_bytes
       r.Driver.budget_bytes)
    true
    (r.Driver.peak_mem_bytes < r.Driver.budget_bytes);
  (* Since evictions fired, some write overshot the budget before its
     same-instant eviction pulled the aggregate back under. *)
  Alcotest.(check bool) "overshoot reached the budget" true
    (r.Driver.peak_pre_mem_bytes >= r.Driver.budget_bytes)

(* The budget note reports the pre-enforcement peak as such, and the
   overshoot as that peak minus the budget. *)
let test_budget_note_overshoot () =
  let mb = 1024 * 1024 in
  let r =
    {
      Driver.r_cfg = Driver.config Lsm_harness.Scale.tiny;
      rate_rps = 100.0;
      capacity_rps = 0.0;
      requests = 0;
      classes = [];
      backlog_frac = 0.0;
      queue_growth = 1.0;
      saturated = false;
      budget_bytes = 4 * mb;
      peak_mem_bytes = 3 * mb;
      peak_pre_mem_bytes = 5 * mb;
      evictions = 7;
      resil = [];
    }
  in
  Alcotest.(check string)
    "note"
    "global budget 4.00MB: aggregate memtable peak 3.00MB after eviction, \
     5.00MB before (overshoot 1.00MB), 7 coordinator flushes"
    (Lsm_serve.Serve_report.budget_note r);
  let under = { r with Driver.peak_pre_mem_bytes = 2 * mb } in
  Alcotest.(check bool)
    "no overshoot under the budget" true
    (String.ends_with ~suffix:"(overshoot 0.00MB), 7 coordinator flushes"
       (Lsm_serve.Serve_report.budget_note under))

let test_class_accounting () =
  let r = Lazy.force base_run in
  Alcotest.(check (list string))
    "one row per class plus all"
    [ "ingest"; "point"; "multi"; "secondary"; "scan"; "all" ]
    (List.map (fun (c : Driver.class_stats) -> c.Driver.cls) r.Driver.classes);
  let counts =
    List.map (fun (c : Driver.class_stats) -> c.Driver.count) r.Driver.classes
  in
  (match counts with
  | [ a; b; c; d; e; all ] ->
      Alcotest.(check int) "classes partition the requests" all
        (a + b + c + d + e);
      Alcotest.(check int) "all = requests" r.Driver.requests all
  | _ -> Alcotest.fail "expected 6 class rows");
  List.iter
    (fun (c : Driver.class_stats) ->
      Alcotest.(check bool)
        (c.Driver.cls ^ ": 0 <= p50 <= p95 <= p99")
        true
        (c.Driver.p50_us >= 0.0
        && c.Driver.p50_us <= c.Driver.p95_us
        && c.Driver.p95_us <= c.Driver.p99_us))
    r.Driver.classes

let test_run_deterministic () =
  let r1 = Lazy.force base_run in
  let r2 = Driver.run (tiny_cfg ()) in
  Alcotest.(check bool) "same seed, identical result" true (r1 = r2);
  let r3 = Driver.run (tiny_cfg ~seed:6 ()) in
  Alcotest.(check bool) "different seed, different traffic" true (r1 <> r3)

let test_auto_rate () =
  let r = Driver.run (tiny_cfg ~rate:0.0 ~duration:0.15 ()) in
  Alcotest.(check bool) "capacity estimate recorded" true
    (r.Driver.capacity_rps > 0.0);
  Alcotest.(check (float 0.0)) "offered rate = 70% of capacity"
    (0.7 *. r.Driver.capacity_rps)
    r.Driver.rate_rps

let test_knee () =
  let cfg = tiny_cfg ~rate:0.0 ~duration:0.3 () in
  let cap = Driver.estimate_capacity cfg in
  Alcotest.(check bool) "capacity positive" true (cap > 0.0);
  let low = Driver.run { cfg with Driver.rate_rps = 0.3 *. cap } in
  let high = Driver.run { cfg with Driver.rate_rps = 3.0 *. cap } in
  Alcotest.(check bool) "30% of capacity: below saturation" false
    low.Driver.saturated;
  Alcotest.(check bool) "3x capacity: saturated" true high.Driver.saturated;
  Alcotest.(check bool)
    (Printf.sprintf "queueing delay grew %.2fx across the run"
       high.Driver.queue_growth)
    true
    (high.Driver.queue_growth > 1.5);
  Alcotest.(check bool) "backlog dominates above the knee" true
    (high.Driver.backlog_frac > low.Driver.backlog_frac
    && high.Driver.backlog_frac > 0.5)

(* ------------------------------------------------------------------ *)
(* Timelines, burn-rate SLOs, and interference attribution *)

module Timeseries = Lsm_obs.Timeseries
module Slo = Lsm_obs.Slo
module Histogram = Lsm_obs.Histogram
module Serve_report = Lsm_serve.Serve_report

let window_us = 20_000.0

(* The knee pair again, this time instrumented: one capacity probe, then
   a quiet 0.3x run and a saturated 3x run with timelines attached. *)
let timeline_pair =
  lazy
    (let cfg = tiny_cfg ~rate:0.0 ~duration:0.3 () in
     let cap = Driver.estimate_capacity cfg in
     let low_ts = Timeseries.create ~window_us () in
     let low =
       Driver.run ~timeline:low_ts { cfg with Driver.rate_rps = 0.3 *. cap }
     in
     let high_ts = Timeseries.create ~window_us () in
     let high =
       Driver.run ~timeline:high_ts { cfg with Driver.rate_rps = 3.0 *. cap }
     in
     (low, low_ts, high, high_ts))

(* Threshold comfortably above everything the quiet run saw: the 0.3x
   run cannot violate it even once, so any alert can only come from the
   saturated run's queueing. *)
let objective_for low_ts =
  let worst = ref 0.0 in
  for i = 0 to Timeseries.n_windows low_ts - 1 do
    match Timeseries.hist low_ts ~i "all" with
    | Some h -> worst := Float.max !worst (Histogram.max_value h)
    | None -> ()
  done;
  { Slo.series = "all"; quantile = 0.99; threshold_us = !worst *. 1.5 }

let test_saturated_run_alerts_with_culprit () =
  let _, low_ts, high, high_ts = Lazy.force timeline_pair in
  let o = objective_for low_ts in
  Alcotest.(check bool) "3x run saturated" true high.Driver.saturated;
  let alerts = Slo.evaluate high_ts o in
  Alcotest.(check bool) "burn-rate alert fired" true (alerts <> []);
  let findings = Slo.attribute high_ts alerts in
  Alcotest.(check bool) "attribution joined events" true (findings <> []);
  Alcotest.(check bool)
    "a budget eviction or merge is named in a spiking window" true
    (List.exists
       (fun (f : Slo.finding) ->
         match f.Slo.f_event.Timeseries.e_kind with
         | "eviction" | "lsm.merge" | "lsm.flush" | "dataset.flush"
         | "dataset.merge" ->
             true
         | _ -> false)
       findings);
  (* Every finding's overlap stays within one window. *)
  List.iter
    (fun (f : Slo.finding) ->
      Alcotest.(check bool) "overlap bounded by the window" true
        (f.Slo.f_overlap_us >= 0.0
        && f.Slo.f_overlap_us <= Timeseries.window_us high_ts))
    findings

let test_quiet_run_no_alerts () =
  let low, low_ts, _, _ = Lazy.force timeline_pair in
  Alcotest.(check bool) "0.3x run below saturation" false low.Driver.saturated;
  let o = objective_for low_ts in
  Alcotest.(check (list int))
    "0.3x capacity: no burn-rate alerts" []
    (List.map (fun (a : Slo.alert) -> a.Slo.a_window) (Slo.evaluate low_ts o))

let test_timeline_noninvasive () =
  let r_plain = Lazy.force base_run in
  let ts = Timeseries.create ~window_us () in
  let r_instr = Driver.run ~timeline:ts (tiny_cfg ()) in
  Alcotest.(check bool) "result identical with timeline attached" true
    (r_plain = r_instr);
  Alcotest.(check bool) "timeline observed the run" true
    (Timeseries.n_windows ts > 0)

let test_timeline_byte_identical () =
  let render () =
    let ts = Timeseries.create ~window_us () in
    let r = Driver.run ~timeline:ts (tiny_cfg ()) in
    let o = { Slo.series = "point"; quantile = 0.99; threshold_us = 1500.0 } in
    ( Lsm_obs.Json.to_string (Serve_report.timeline_to_json r ts [ o ]),
      Timeseries.to_csv ts )
  in
  let j1, c1 = render () in
  let j2, c2 = render () in
  Alcotest.(check string) "timeline JSON byte-identical across runs" j1 j2;
  Alcotest.(check string) "timeline CSV byte-identical across runs" c1 c2

(* ------------------------------------------------------------------ *)
(* Clean runs pinned bit for bit: full results recorded before the
   clean and chaos paths shared one loop, on the benchmark's
   50/30/10/6/4 mix (multi-gets included) across strategies, memory
   shards and maintenance workers.  Floats print as %h, so any moved
   simulated charge fails here. *)

let render (r : Driver.result) =
  let b = Buffer.create 1024 in
  let p fmt = Printf.bprintf b fmt in
  p "rate=%h cap=%h req=%d backlog=%h growth=%h sat=%b" r.Driver.rate_rps
    r.Driver.capacity_rps r.Driver.requests r.Driver.backlog_frac
    r.Driver.queue_growth r.Driver.saturated;
  p " budget=%d peak=%d pre=%d ev=%d" r.Driver.budget_bytes
    r.Driver.peak_mem_bytes r.Driver.peak_pre_mem_bytes r.Driver.evictions;
  List.iter
    (fun (c : Driver.class_stats) ->
      p "\n%s n=%d %h %h %h q=%h s=%h" c.Driver.cls c.Driver.count
        c.Driver.p50_us c.Driver.p95_us c.Driver.p99_us c.Driver.mean_queue_us
        c.Driver.mean_service_us)
    r.Driver.classes;
  List.iter
    (fun (x : Driver.part_resil) ->
      p "\np%d %d %d %d %d %d" x.Driver.pr_part x.Driver.pr_retries
        x.Driver.pr_exhausted x.Driver.pr_checksum x.Driver.pr_quarantines
        x.Driver.pr_rebuilds)
    r.Driver.resil;
  Buffer.contents b

let pin_cfg ~seed ~strategy ~mem_shards ~maint_workers =
  let cfg = Driver.config ~partitions:4 Lsm_harness.Scale.tiny in
  {
    cfg with
    Driver.rate_rps = 1200.0;
    duration_s = 0.2;
    mix =
      {
        Driver.ingest = 0.5;
        point = 0.3;
        multi = 0.1;
        secondary = 0.06;
        scan = 0.04;
      };
    seed;
    strategy;
    mem_shards;
    maint_workers;
  }

let pin_cases =
  let module S = Lsm_core.Strategy in
  [
    ( "validation",
      pin_cfg ~seed:3 ~strategy:S.validation ~mem_shards:1 ~maint_workers:1 );
    ( "bitmap shards=4",
      pin_cfg ~seed:4 ~strategy:S.mutable_bitmap ~mem_shards:4 ~maint_workers:1
    );
    ( "eager workers=2",
      pin_cfg ~seed:5 ~strategy:S.eager ~mem_shards:1 ~maint_workers:2 );
    ( "validation shards=4 workers=2",
      pin_cfg ~seed:6 ~strategy:S.validation ~mem_shards:4 ~maint_workers:2 );
  ]

let pinned =
  [
    ("validation",
     "rate=0x1.2cp+10 cap=0x0p+0 req=239 backlog=0x0p+0 growth=0x1.30de20b0a4263p+2 sat=false budget=416666 peak=416656 pre=417277 ev=34\n\
      ingest n=121 0x1.666666664p-2 0x1.85b8914f9469p+12 0x1.0820f2902a03p+13 q=0x1.8193877f933fbp+10 s=0x1.f74886ba8p-3\n\
      point n=72 0x1.3170a3d70a4p+9 0x1.23e73143aa8f8p+13 0x1.685b09ca3ecap+13 q=0x1.33b89d88c94a2p+11 s=0x1.cd5c4d5e6f872p+7\n\
      multi n=25 0x1.3e64fa3839cep+11 0x1.19a9b0f73c4ep+13 0x1.73edc1c44835p+13 q=0x1.7159f938d3c85p+11 s=0x1.f71f1a9fbe84dp+9\n\
      secondary n=10 0x1.0dec26a81d7bp+12 0x1.1cd5692789f88p+13 0x1.1cd5692789f88p+13 q=0x1.0fdf59f92b93dp+11 s=0x1.719a41893939ap+11\n\
      scan n=11 0x1.82f085bf610bp+12 0x1.bd37aa2d875p+13 0x1.bd37aa2d875p+13 q=0x1.2b1f272ab7eccp+11 s=0x1.502cbfc46d3b9p+12\n\
      all n=239 0x1.39605d90c07p+9 0x1.15763d314021p+13 0x1.73edc1c44835p+13 q=0x1.fc2b2420a5613p+10 s=0x1.111326dc5024dp+9\n\
      p0 0 0 0 0 0\n\
      p1 0 0 0 0 0\n\
      p2 0 0 0 0 0\n\
      p3 0 0 0 0 0");
    ("bitmap shards=4",
     "rate=0x1.2cp+10 cap=0x0p+0 req=233 backlog=0x0p+0 growth=0x1.f021ed3cf21a6p+0 sat=false budget=416666 peak=416661 pre=417274 ev=114\n\
      ingest n=119 0x1.699999999p+1 0x1.abd853d5161ep+12 0x1.f09b5c28f5f4p+12 q=0x1.20e4e23de78b9p+10 s=0x1.8e1f1b733843cp+6\n\
      point n=62 0x1.316f5c28f5cp+9 0x1.2421126251c2p+12 0x1.041f59b33d47p+13 q=0x1.8dae0e922273bp+9 s=0x1.dac3387c33811p+7\n\
      multi n=28 0x1.4565c28f5c3p+10 0x1.c7e7d84bdc2dp+12 0x1.f580ee7ca5ccp+12 q=0x1.8f6b34bad1628p+10 s=0x1.dbdf564efe8aep+9\n\
      secondary n=18 0x1.cfb5778b049bp+11 0x1.27bc51b8a57a8p+13 0x1.27bc51b8a57a8p+13 q=0x1.1d49c0a2dd659p+10 s=0x1.a0107ae149ad5p+11\n\
      scan n=6 0x1.c10803887eccp+11 0x1.41dd7dc0b604p+13 0x1.41dd7dc0b604p+13 q=0x1.d816106b6031p+11 s=0x1.3134e81b5326bp+10\n\
      all n=233 0x1.31a47ae147bp+9 0x1.bff843b69256p+12 0x1.08e2ef8c802f8p+13 q=0x1.26cf0468ce515p+10 s=0x1.027951e045bdp+9\n\
      p0 0 0 0 0 0\n\
      p1 0 0 0 0 0\n\
      p2 0 0 0 0 0\n\
      p3 0 0 0 0 0");
    ("eager workers=2",
     "rate=0x1.2cp+10 cap=0x0p+0 req=243 backlog=0x0p+0 growth=0x1.0f811278b5a95p-1 sat=false budget=416666 peak=416639 pre=417249 ev=34\n\
      ingest n=125 0x1.318e147ae148p+9 0x1.004b20afbf53p+13 0x1.48396bbbdc8fp+13 q=0x1.f5705d507c504p+10 s=0x1.6ce809d4951f6p+7\n\
      point n=72 0x1.3171eb851eb8p+9 0x1.1a02e5795ae8fp+13 0x1.61a16cedd749p+13 q=0x1.41fdb6ef8e5d5p+11 s=0x1.fdee41fdb978ep+7\n\
      multi n=24 0x1.273068c9a36ep+12 0x1.12c0f864e91bp+13 0x1.7c1ede0f87dbp+13 q=0x1.c3466d0c445bdp+11 s=0x1.fdb1b4e81b558p+9\n\
      secondary n=14 0x1.101770a3d718p+12 0x1.61f3fe3a6ac08p+13 0x1.61f3fe3a6ac08p+13 q=0x1.501e0da25715p+11 s=0x1.8ebfb9c86ab03p+11\n\
      scan n=8 0x1.08607a4deae78p+13 0x1.790c0abe5badp+13 0x1.790c0abe5badp+13 q=0x1.7394c2033360ap+11 s=0x1.5698b33334d4p+12\n\
      all n=243 0x1.3536bf4fb34ap+10 0x1.2a131a15139b8p+13 0x1.6af745d68cfdp+13 q=0x1.2c8b419864423p+11 s=0x1.3d29fc09f2acep+9\n\
      p0 0 0 0 0 0\n\
      p1 0 0 0 0 0\n\
      p2 0 0 0 0 0\n\
      p3 0 0 0 0 0");
    ("validation shards=4 workers=2",
     "rate=0x1.2cp+10 cap=0x0p+0 req=229 backlog=0x1.d34d7b4daee63p-9 growth=0x1.8e715012857d4p+1 sat=false budget=416666 peak=416662 pre=417277 ev=114\n\
      ingest n=119 0x1.ef1f00fc42bp+7 0x1.d473f7dd1f72p+12 0x1.281aed213031p+13 q=0x1.c1a0309743582p+10 s=0x1.439b7e3c66c1ap+4\n\
      point n=65 0x1.313851eb852p+9 0x1.29223cc66e53p+13 0x1.7abd92dc892ap+13 q=0x1.5f2e6fa703c7fp+10 s=0x1.07939d10db437p+8\n\
      multi n=22 0x1.5f06936da684p+11 0x1.6451a621ee08p+12 0x1.acb5150e264ep+12 q=0x1.cb40da78d8bp+10 s=0x1.3f83244e3246fp+10\n\
      secondary n=13 0x1.168a51eb93dep+12 0x1.86bc1f922a9ap+13 0x1.86bc1f922a9ap+13 q=0x1.e90c952500ffep+10 s=0x1.b4cbc74945b05p+11\n\
      scan n=10 0x1.a9e880d15472p+12 0x1.c040e0b3c89bp+13 0x1.c040e0b3c89bp+13 q=0x1.57c9b00f19fd3p+11 s=0x1.3d6f624dd502ap+12\n\
      all n=229 0x1.219c2290d0cp+10 0x1.281aed213031p+13 0x1.7abd92dc892ap+13 q=0x1.b33c9dab38fa1p+10 s=0x1.3a21fa8b6e77ap+9\n\
      p0 0 0 0 0 0\n\
      p1 0 0 0 0 0\n\
      p2 0 0 0 0 0\n\
      p3 0 0 0 0 0");
  ]

let test_pinned_results () =
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check string)
        name (List.assoc name pinned)
        (render (Driver.run cfg)))
    pin_cases

let test_pinned_capacity () =
  let _, cfg = List.hd pin_cases in
  Alcotest.(check string)
    "estimate_capacity ~ops:400" "0x1.11e08a815031ep+11"
    (Printf.sprintf "%h" (Driver.estimate_capacity ~ops:400 cfg))

(* The last case's timeline, JSON and CSV, by digest. *)
let test_pinned_timeline () =
  let _, cfg = List.nth pin_cases 3 in
  let ts = Timeseries.create ~window_us () in
  let r = Driver.run ~timeline:ts cfg in
  let o = { Slo.series = "multi"; quantile = 0.99; threshold_us = 1500.0 } in
  Alcotest.(check string)
    "timeline digest" "27589372c7a4403a657b394b8ec5b31c"
    (Digest.to_hex
       (Digest.string
          (Lsm_obs.Json.to_string (Serve_report.timeline_to_json r ts [ o ])
          ^ Timeseries.to_csv ts)))

let () =
  Alcotest.run "lsm_serve"
    [
      ( "budget",
        [
          Alcotest.test_case "evicts the largest memtable" `Quick
            test_budget_evicts_largest;
          Alcotest.test_case "cascades until under budget" `Quick
            test_budget_cascades;
          Alcotest.test_case "ties break low" `Quick test_budget_ties_break_low;
          Alcotest.test_case "validates arguments" `Quick test_budget_validates;
          Alcotest.test_case "evicts the largest shard" `Quick
            test_budget_evicts_largest_shard;
          Alcotest.test_case "shard cascade crosses partitions" `Quick
            test_budget_shard_cascade;
          Alcotest.test_case "sharded peak_pre does not regress" `Quick
            test_budget_shard_peak_pre_no_regress;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "uniform gaps exact" `Quick
            test_arrivals_uniform_exact;
          Alcotest.test_case "poisson mean gap" `Quick test_arrivals_poisson_mean;
          Alcotest.test_case "seeded streams repeat" `Quick test_arrivals_seeded;
          Alcotest.test_case "bursty preserves mean, adds variance" `Quick
            test_arrivals_bursty_mean;
          Alcotest.test_case "bursty seeded streams repeat" `Quick
            test_arrivals_bursty_seeded;
          Alcotest.test_case "validates arguments" `Quick test_arrivals_validate;
        ] );
      ( "driver",
        [
          Alcotest.test_case "budget invariant under load" `Quick
            test_budget_invariant_under_load;
          Alcotest.test_case "budget note overshoot" `Quick
            test_budget_note_overshoot;
          Alcotest.test_case "class accounting" `Quick test_class_accounting;
          Alcotest.test_case "deterministic for a seed" `Quick
            test_run_deterministic;
          Alcotest.test_case "auto rate anchors to capacity" `Quick
            test_auto_rate;
          Alcotest.test_case "saturation knee" `Quick test_knee;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "saturated run alerts with culprit" `Quick
            test_saturated_run_alerts_with_culprit;
          Alcotest.test_case "quiet run stays silent" `Quick
            test_quiet_run_no_alerts;
          Alcotest.test_case "instrumentation is non-invasive" `Quick
            test_timeline_noninvasive;
          Alcotest.test_case "exports byte-identical for a seed" `Quick
            test_timeline_byte_identical;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "clean results" `Quick test_pinned_results;
          Alcotest.test_case "capacity estimate" `Quick test_pinned_capacity;
          Alcotest.test_case "clean timeline" `Quick test_pinned_timeline;
        ] );
    ]
