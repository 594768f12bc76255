(** Serving-layer reporting: SLO tables, [serve.*] gauges, and the
    machine-readable ["lsm-repro-serve/1"] JSON document the CLI and CI
    consume. *)

module Report = Lsm_harness.Report
module Json = Lsm_obs.Json
module Metrics = Lsm_obs.Metrics
module Timeseries = Lsm_obs.Timeseries
module Slo = Lsm_obs.Slo

let schema = "lsm-repro-serve/1"
let timeline_schema = "lsm-repro-timeline/1"

let fmt_us us = Printf.sprintf "%.2f" (us /. 1000.0)
let fmt_rate r = Printf.sprintf "%.0f" r
let fmt_mb b = Printf.sprintf "%.2fMB" (Float.of_int b /. (1024.0 *. 1024.0))

let verdict (r : Driver.result) =
  if r.Driver.saturated then
    Printf.sprintf
      "SATURATED: backlog %.0f%% of the run unfinished; queueing delay grew \
       %.1fx from first to second half and dominates latency"
      (100.0 *. r.Driver.backlog_frac)
      r.Driver.queue_growth
  else
    Printf.sprintf
      "below saturation: p99 bounded per class (queue growth %.2fx, backlog \
       %.1f%%)"
      r.Driver.queue_growth
      (100.0 *. r.Driver.backlog_frac)

(* The overshoot is how far the pre-enforcement peak went past the
   budget (0 when it never did). *)
let budget_note (r : Driver.result) =
  Printf.sprintf
    "global budget %s: aggregate memtable peak %s after eviction, %s before \
     (overshoot %s), %d coordinator flushes"
    (fmt_mb r.Driver.budget_bytes)
    (fmt_mb r.Driver.peak_mem_bytes)
    (fmt_mb r.Driver.peak_pre_mem_bytes)
    (fmt_mb (max 0 (r.Driver.peak_pre_mem_bytes - r.Driver.budget_bytes)))
    r.Driver.evictions

(* Per-partition engine resilience counters: a note line when the run
   exercised any retry/degradation machinery, "clean" otherwise. *)
let resil_note (r : Driver.result) =
  let active =
    List.filter
      (fun (pr : Driver.part_resil) ->
        pr.Driver.pr_retries + pr.Driver.pr_exhausted + pr.Driver.pr_checksum
        + pr.Driver.pr_quarantines + pr.Driver.pr_rebuilds
        > 0)
      r.Driver.resil
  in
  if active = [] then "resilience: clean (no retries, no quarantines)"
  else
    "resilience: "
    ^ String.concat "; "
        (List.map
           (fun (pr : Driver.part_resil) ->
             Printf.sprintf
               "p%d retries=%d exhausted=%d checksum=%d quarantines=%d \
                rebuilds=%d"
               pr.Driver.pr_part pr.Driver.pr_retries pr.Driver.pr_exhausted
               pr.Driver.pr_checksum pr.Driver.pr_quarantines
               pr.Driver.pr_rebuilds)
           active)

(** [report r] is the per-run SLO table: one row per operation class
    (latencies in milliseconds), the budget line and saturation verdict
    as notes. *)
let report (r : Driver.result) =
  let cfg = r.Driver.r_cfg in
  let rows =
    List.map
      (fun (c : Driver.class_stats) ->
        [
          c.Driver.cls;
          string_of_int c.Driver.count;
          fmt_us c.Driver.p50_us;
          fmt_us c.Driver.p95_us;
          fmt_us c.Driver.p99_us;
          fmt_us c.Driver.mean_queue_us;
          fmt_us c.Driver.mean_service_us;
        ])
      r.Driver.classes
  in
  Report.make ~id:"serve"
    ~title:
      (Printf.sprintf
         "Open-loop serving: %d partitions, %s arrivals at %s rps, %.1fs \
          simulated (scale %s, seed %d)"
         cfg.Driver.partitions
         (Arrivals.string_of_kind cfg.Driver.arrivals)
         (fmt_rate r.Driver.rate_rps) cfg.Driver.duration_s
         cfg.Driver.scale.Lsm_harness.Scale.name cfg.Driver.seed)
    ~header:
      [ "class"; "count"; "p50_ms"; "p95_ms"; "p99_ms"; "queue_ms"; "svc_ms" ]
    ~notes:[ budget_note r; resil_note r; verdict r ]
    rows

(** [sweep_report sw] is the knee table: one row per rung of the rate
    ladder, p99 per class, queue growth, backlog, and the verdict. *)
let sweep_report (sw : Driver.sweep_result) =
  let class_p99 (r : Driver.result) name =
    match List.find_opt (fun c -> c.Driver.cls = name) r.Driver.classes with
    | Some c -> fmt_us c.Driver.p99_us
    | None -> "-"
  in
  let rows =
    List.map
      (fun (r : Driver.result) ->
        [
          fmt_rate r.Driver.rate_rps;
          class_p99 r "ingest";
          class_p99 r "point";
          class_p99 r "secondary";
          class_p99 r "scan";
          Printf.sprintf "%.2f" r.Driver.queue_growth;
          Printf.sprintf "%.0f%%" (100.0 *. r.Driver.backlog_frac);
          (if r.Driver.saturated then "SATURATED" else "ok");
        ])
      sw.Driver.points
  in
  let knee =
    match sw.Driver.knee_rps with
    | Some k ->
        Printf.sprintf "knee: %s rps — the highest offered rate below \
                        saturation" (fmt_rate k)
    | None -> "knee: none — every rung of the ladder saturated"
  in
  Report.make ~id:"serve-sweep"
    ~title:
      (Printf.sprintf "Load sweep (capacity estimate %s rps)"
         (fmt_rate sw.Driver.sw_capacity_rps))
    ~header:
      [
        "rate_rps";
        "ingest_p99_ms";
        "point_p99_ms";
        "secondary_p99_ms";
        "scan_p99_ms";
        "queue_growth";
        "backlog";
        "verdict";
      ]
    ~notes:[ knee ]
    rows

(** [publish r m] mirrors a run into [serve.*] gauges. *)
let publish (r : Driver.result) m =
  let set name v = Metrics.set (Metrics.gauge m ("serve." ^ name)) v in
  set "rate_rps" r.Driver.rate_rps;
  set "requests" (Float.of_int r.Driver.requests);
  set "partitions" (Float.of_int r.Driver.r_cfg.Driver.partitions);
  set "backlog_frac" r.Driver.backlog_frac;
  set "queue_growth" r.Driver.queue_growth;
  set "saturated" (if r.Driver.saturated then 1.0 else 0.0);
  set "budget_bytes" (Float.of_int r.Driver.budget_bytes);
  set "mem_peak_bytes" (Float.of_int r.Driver.peak_mem_bytes);
  set "mem_peak_pre_bytes" (Float.of_int r.Driver.peak_pre_mem_bytes);
  set "evictions" (Float.of_int r.Driver.evictions);
  List.iter
    (fun (c : Driver.class_stats) ->
      let pfx = c.Driver.cls ^ "." in
      set (pfx ^ "count") (Float.of_int c.Driver.count);
      set (pfx ^ "p50_us") c.Driver.p50_us;
      set (pfx ^ "p95_us") c.Driver.p95_us;
      set (pfx ^ "p99_us") c.Driver.p99_us;
      set (pfx ^ "queue_mean_us") c.Driver.mean_queue_us;
      set (pfx ^ "service_mean_us") c.Driver.mean_service_us)
    r.Driver.classes;
  List.iter
    (fun (pr : Driver.part_resil) ->
      let pfx = Printf.sprintf "p%d.resilience." pr.Driver.pr_part in
      set (pfx ^ "retries") (Float.of_int pr.Driver.pr_retries);
      set (pfx ^ "exhausted") (Float.of_int pr.Driver.pr_exhausted);
      set (pfx ^ "checksum_failures") (Float.of_int pr.Driver.pr_checksum);
      set (pfx ^ "quarantines") (Float.of_int pr.Driver.pr_quarantines);
      set (pfx ^ "rebuilds") (Float.of_int pr.Driver.pr_rebuilds))
    r.Driver.resil

(* ------------------------------------------------------------------ *)
(* JSON *)

let json_of_classes classes =
  Json.List
    (List.map
       (fun (c : Driver.class_stats) ->
         Json.Obj
           [
             ("class", Json.Str c.Driver.cls);
             ("count", Json.Int c.Driver.count);
             ("p50_us", Json.Float c.Driver.p50_us);
             ("p95_us", Json.Float c.Driver.p95_us);
             ("p99_us", Json.Float c.Driver.p99_us);
             ("mean_queue_us", Json.Float c.Driver.mean_queue_us);
             ("mean_service_us", Json.Float c.Driver.mean_service_us);
           ])
       classes)

let json_of_resil (resil : Driver.part_resil list) =
  Json.List
    (List.map
       (fun (pr : Driver.part_resil) ->
         Json.Obj
           [
             ("part", Json.Int pr.Driver.pr_part);
             ("retries", Json.Int pr.Driver.pr_retries);
             ("exhausted", Json.Int pr.Driver.pr_exhausted);
             ("checksum_failures", Json.Int pr.Driver.pr_checksum);
             ("quarantines", Json.Int pr.Driver.pr_quarantines);
             ("rebuilds", Json.Int pr.Driver.pr_rebuilds);
           ])
       resil)

let json_of_run (r : Driver.result) =
  Json.Obj
    [
      ("rate_rps", Json.Float r.Driver.rate_rps);
      ("requests", Json.Int r.Driver.requests);
      ("saturated", Json.Bool r.Driver.saturated);
      ("backlog_frac", Json.Float r.Driver.backlog_frac);
      ("queue_growth", Json.Float r.Driver.queue_growth);
      ("classes", json_of_classes r.Driver.classes);
      ("resilience", json_of_resil r.Driver.resil);
      ( "budget",
        Json.Obj
          [
            ("budget_bytes", Json.Int r.Driver.budget_bytes);
            ("peak_bytes", Json.Int r.Driver.peak_mem_bytes);
            ("peak_pre_bytes", Json.Int r.Driver.peak_pre_mem_bytes);
            ("evictions", Json.Int r.Driver.evictions);
            ("ok", Json.Bool (r.Driver.peak_mem_bytes <= r.Driver.budget_bytes));
          ] );
    ]

let json_of_config (cfg : Driver.config) =
  Json.Obj
    [
      ("scale", Json.Str cfg.Driver.scale.Lsm_harness.Scale.name);
      ("partitions", Json.Int cfg.Driver.partitions);
      ("duration_s", Json.Float cfg.Driver.duration_s);
      ("arrivals", Json.Str (Arrivals.string_of_kind cfg.Driver.arrivals));
      ("theta", Json.Float cfg.Driver.theta);
      ("users", Json.Int cfg.Driver.users);
      ("preload", Json.Int cfg.Driver.preload);
      ("budget_bytes", Json.Int cfg.Driver.budget_bytes);
      ("selectivity", Json.Float cfg.Driver.selectivity);
      ("strategy", Json.Str (Lsm_core.Strategy.name cfg.Driver.strategy));
      ("seed", Json.Int cfg.Driver.seed);
    ]

(** One-run document ([mode = "run"]). *)
let to_json (r : Driver.result) =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("mode", Json.Str "run");
      ("config", json_of_config r.Driver.r_cfg);
      ("capacity_rps", Json.Float r.Driver.capacity_rps);
      ("run", json_of_run r);
    ]

(* ------------------------------------------------------------------ *)
(* Timeline: the windowed-telemetry document and its text digest *)

(** Timeline document: run config and summary, the windowed series and
    event ring, and the SLO evaluation (alerts, ranked interference
    findings, flight records). *)
let timeline_to_json ?slo_config (r : Driver.result) ts objectives =
  Json.Obj
    [
      ("schema", Json.Str timeline_schema);
      ("config", json_of_config r.Driver.r_cfg);
      ("run", json_of_run r);
      ("timeline", Timeseries.to_json ts);
      ("slo", Slo.to_json ?config:slo_config ts objectives);
    ]

(** [timeline_report r ts objectives] is the human-readable digest: one
    row per burn-rate alert with its top-ranked interfering maintenance
    event, plus collection totals as notes. *)
let timeline_report ?slo_config (r : Driver.result) ts objectives =
  let alerts =
    List.concat_map (fun o -> Slo.evaluate ?config:slo_config ts o) objectives
  in
  let findings = Slo.attribute ts alerts in
  let top_for a =
    List.find_opt (fun (f : Slo.finding) -> f.Slo.f_alert == a) findings
  in
  let rows =
    List.map
      (fun (a : Slo.alert) ->
        let culprit =
          match top_for a with
          | Some f ->
              Printf.sprintf "%s on p%d (%.1fms overlap)"
                f.Slo.f_event.Timeseries.e_kind f.Slo.f_event.Timeseries.e_part
                (f.Slo.f_overlap_us /. 1000.0)
          | None -> "none in window"
        in
        [
          string_of_int a.Slo.a_window;
          Printf.sprintf "%.0f"
            (Timeseries.window_start ts a.Slo.a_window /. 1000.0);
          Format.asprintf "%a" Slo.pp_objective a.Slo.a_objective;
          Printf.sprintf "%.1f" a.Slo.a_fast_burn;
          Printf.sprintf "%.1f" a.Slo.a_slow_burn;
          Printf.sprintf "%d/%d" a.Slo.a_bad a.Slo.a_total;
          culprit;
        ])
      alerts
  in
  let totals =
    Printf.sprintf
      "%d windows of %.0fms; %d maintenance events recorded (%d dropped from \
       the ring); %d coordinator evictions"
      (Timeseries.n_windows ts)
      (Timeseries.window_us ts /. 1000.0)
      (Timeseries.events_recorded ts)
      (Timeseries.events_dropped ts)
      r.Driver.evictions
  in
  let verdict =
    if alerts = [] then
      "no SLO burn-rate alerts — every objective held over the run"
    else
      Printf.sprintf
        "%d alert window(s); culprits above rank maintenance events by \
         overlap with the alerting window"
        (List.length alerts)
  in
  Report.make ~id:"serve-timeline"
    ~title:
      (Printf.sprintf
         "Serving timeline: %d windows, objectives [%s]"
         (Timeseries.n_windows ts)
         (String.concat "; "
            (List.map (Format.asprintf "%a" Slo.pp_objective) objectives)))
    ~header:
      [ "window"; "t_ms"; "objective"; "fast_burn"; "slow_burn"; "bad/total"; "top culprit" ]
    ~notes:[ totals; verdict ]
    rows

(** Sweep document ([mode = "sweep"]). *)
let sweep_to_json (cfg : Driver.config) (sw : Driver.sweep_result) =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("mode", Json.Str "sweep");
      ("config", json_of_config cfg);
      ( "sweep",
        Json.Obj
          [
            ("capacity_rps", Json.Float sw.Driver.sw_capacity_rps);
            ( "knee_rps",
              match sw.Driver.knee_rps with
              | Some k -> Json.Float k
              | None -> Json.Null );
            ("points", Json.List (List.map json_of_run sw.Driver.points));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Chaos runs: degraded-operation report and document *)

let json_of_verdict (v : Chaos_checker.verdict) =
  Json.Obj
    [
      ("ok", Json.Bool (Chaos_checker.ok v));
      ("arrivals", Json.Int v.Chaos_checker.v_arrivals);
      ("successes", Json.Int v.Chaos_checker.v_successes);
      ("failures", Json.Int v.Chaos_checker.v_failures);
      ("shed", Json.Int v.Chaos_checker.v_shed);
      ("answers_checked", Json.Int v.Chaos_checker.v_checked);
      ("keys_probed", Json.Int v.Chaos_checker.v_probed);
      ("violations_total", Json.Int v.Chaos_checker.v_violations_total);
      ( "violations",
        Json.List (List.map (fun s -> Json.Str s) v.Chaos_checker.v_violations)
      );
    ]

let json_of_policy (p : Chaos.policy) =
  Json.Obj
    [
      ("deadline_us", Json.Float p.Chaos.deadline_us);
      ("retries", Json.Int p.Chaos.retries);
      ("hedge_us", Json.Float p.Chaos.hedge_us);
      ("shed_backlog_us", Json.Float p.Chaos.shed_backlog_us);
    ]

(** Chaos-run document ([mode = "chaos"]): the base run plus the
    degradation ledger and, when the checker ran, its verdict. *)
let chaos_to_json ?checker (c : Driver.chaos_result) =
  let base = c.Driver.c_base in
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("mode", Json.Str "chaos");
       ("config", json_of_config base.Driver.r_cfg);
       ("capacity_rps", Json.Float base.Driver.capacity_rps);
       ("run", json_of_run base);
       ( "chaos",
         Json.Obj
           [
             ( "faults",
               Json.List (List.map (fun s -> Json.Str s) c.Driver.c_faults) );
             ("policy", json_of_policy c.Driver.c_policy);
             ("successes", Json.Int c.Driver.successes);
             ("partials", Json.Int c.Driver.partials);
             ("failures", Json.Int c.Driver.failures);
             ("shed", Json.Int c.Driver.shed);
             ("availability", Json.Float c.Driver.availability);
             ("shed_rate", Json.Float c.Driver.shed_rate);
             ( "fail_reasons",
               Json.Obj
                 (List.map
                    (fun (k, v) -> (k, Json.Int v))
                    c.Driver.fail_reasons) );
             ( "phase_counts",
               Json.Obj
                 (List.map
                    (fun (k, v) -> (k, Json.Int v))
                    c.Driver.phase_counts) );
             ( "phases",
               Json.Obj
                 (List.map
                    (fun (ph, classes) -> (ph, json_of_classes classes))
                    c.Driver.phase_classes) );
             ("breaker_opens", Json.Int c.Driver.breaker_opens);
             ("breaker_transitions", Json.Int c.Driver.breaker_transitions);
             ("down_us", Json.Float c.Driver.down_us);
             ( "evictions_by",
               Json.List (List.map (fun n -> Json.Int n) c.Driver.evictions_by)
             );
           ] );
     ]
    @ match checker with None -> [] | Some v -> [ ("checker", json_of_verdict v) ])

(** [chaos_report c] is the per-phase SLO table: the ["all"] row for
    every phase plus per-class rows where the phase saw traffic, with
    the availability ledger, breaker activity, and the fault plan as
    notes. *)
let chaos_report ?checker (c : Driver.chaos_result) =
  let base = c.Driver.c_base in
  let cfg = base.Driver.r_cfg in
  let rows =
    List.concat_map
      (fun (ph, classes) ->
        List.filter_map
          (fun (cl : Driver.class_stats) ->
            if cl.Driver.cls <> "all" && cl.Driver.count = 0 then None
            else
              Some
                [
                  ph;
                  cl.Driver.cls;
                  string_of_int cl.Driver.count;
                  fmt_us cl.Driver.p50_us;
                  fmt_us cl.Driver.p95_us;
                  fmt_us cl.Driver.p99_us;
                  fmt_us cl.Driver.mean_queue_us;
                ])
          classes)
      c.Driver.phase_classes
  in
  let ledger =
    Printf.sprintf
      "availability %.4f: %d arrivals = %d ok (%d partial) + %d errors + %d \
       shed (%.1f%% shed)"
      c.Driver.availability base.Driver.requests c.Driver.successes
      c.Driver.partials c.Driver.failures c.Driver.shed
      (100.0 *. c.Driver.shed_rate)
  in
  let reasons =
    if c.Driver.fail_reasons = [] then "no request errors"
    else
      "errors: "
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%d" k v)
             c.Driver.fail_reasons)
  in
  let breakers =
    Printf.sprintf
      "breakers: %d opens, %d transitions; partition down %.1fms total"
      c.Driver.breaker_opens c.Driver.breaker_transitions
      (c.Driver.down_us /. 1000.0)
  in
  let plan =
    if c.Driver.c_faults = [] then "fault plan: none (clean chaos run)"
    else "fault plan: " ^ String.concat "; " c.Driver.c_faults
  in
  let checker_note =
    match checker with
    | None -> []
    | Some v -> [ Format.asprintf "%a" Chaos_checker.pp_verdict v ]
  in
  Report.make ~id:"serve-chaos"
    ~title:
      (Printf.sprintf
         "Chaos serving: %d partitions, %s arrivals at %s rps, %.1fs \
          simulated (scale %s, seed %d)"
         cfg.Driver.partitions
         (Arrivals.string_of_kind cfg.Driver.arrivals)
         (fmt_rate base.Driver.rate_rps)
         cfg.Driver.duration_s cfg.Driver.scale.Lsm_harness.Scale.name
         cfg.Driver.seed)
    ~header:
      [ "phase"; "class"; "count"; "p50_ms"; "p95_ms"; "p99_ms"; "queue_ms" ]
    ~notes:
      ([ plan; ledger; reasons; breakers; resil_note base ] @ checker_note)
    rows
