(* The three workloads.  Each [round] builds fresh state from the seed,
   runs one timed phase, checks the answers unless [check] is off, and
   returns host and modelled (simulated-clock) results; [full] adds the
   SLO rate search.  The program only ever sees inputs
   generated here from the seed. *)

module Tweet = Lsm_workload.Tweet
module Query_gen = Lsm_workload.Query_gen
module Scale = Lsm_harness.Scale
module Setup = Lsm_harness.Setup
module Obs_hub = Lsm_harness.Obs_hub
module D = Setup.D
module T = Lsm_core.Txn_dataset.Make (Tweet.Record) (D)
module Wal = Lsm_txn.Wal
module Env = Lsm_sim.Env
module Rng = Lsm_util.Rng
module Strategy = Lsm_core.Strategy
module Driver = Lsm_serve.Driver

(* Sizes.  Every knob derives from the [tiny] experiment scale, so
   data : cache ≈ 15 and data : memory budget ≈ 48 as in the paper's
   testbed (DESIGN.md §5); merge policy is tiering (size ratio 1.2) with
   the scale's maximum mergeable component size. *)
let scale = Scale.tiny

let ingest_txns = 10_000
let txn_records = 4
let group_commit = 8
let query_load = 20_000
let query_updates = 20_000
let serve_rate_rps = 1200.0
let serve_duration_s = 25.0
let serve_probe_duration_s = 6.0
let serve_capacity_ops = 20_000
let reads_per_class = 1200
let check_every = 4

(* The serve mix: 50% ingest, 30% point, 10% multi-get, 6% secondary,
   4% scan. *)
let serve_mix =
  { Driver.ingest = 0.5; point = 0.3; multi = 0.1; secondary = 0.06; scan = 0.04 }

let serve_config ~seed ~rate ~duration =
  {
    (Driver.config ~partitions:4 scale) with
    mix = serve_mix;
    seed;
    rate_rps = rate;
    duration_s = duration;
  }

(** Limits and search settings, fixed by the command line. *)
type slo = {
  limit_us : float;  (** all-operation p99 limit *)
  ladder : Lat.ladder;  (** rate search between capacity/16 and capacity *)
}

type round = {
  setup_s : float;  (** host seconds before the timed phase *)
  gen_s : float;  (** of which generating inputs *)
  timed_s : float;  (** host seconds of the timed phase *)
  ops : int;  (** records, queries or requests completed in it *)
  alloc_words : float;  (** words allocated in it *)
  heap_mb : float;  (** peak major heap after it *)
  model : (string * float) list;
      (** modelled end-to-end metrics; deterministic for a seed *)
  samples : (string * int) list;  (** sample count behind each latency *)
  attempted : int;
  failed : int;
  layers : (string * float) list;  (** per-layer metrics *)
}

let now = Unix.gettimeofday

let alloc () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let heap_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let classes = Catalog.classes

(* Latency samples per operation class, plus "all" over the timed phase. *)
type lats = (string * Lat.t) list

let new_lats () : lats = List.map (fun c -> (c, Lat.create ())) ("all" :: classes)
let lat (l : lats) c = List.assoc c l

(* Classes without samples (ingest's reads in a round that skips them)
   have no latency. *)
let latency_model (l : lats) =
  ( [ ("p50_us", Lat.pct (lat l "all") 50.0); ("p99_us", Lat.pct (lat l "all") 99.0) ]
    @ List.filter_map
        (fun c ->
          let s = lat l c in
          if Lat.count s = 0 then None else Some (c ^ "_p99_us", Lat.pct s 99.0))
        classes,
    List.map (fun (c, s) -> (c, Lat.count s)) l )

(* The highest open-loop rate a single server replaying [service], with
   acknowledgements [acks], meets the limit at. *)
let replay_rate ~seed ~slo ~acks service =
  let n = Array.length service in
  let busy = Array.fold_left ( +. ) 0.0 service in
  let cap = Float.of_int n *. 1e6 /. busy in
  let gaps = Lat.exp_gaps ~seed:((seed * 7) + 5) n in
  Lat.highest ~lo:(cap /. 16.0) ~hi:cap slo.ladder (fun rate ->
      Lat.replay_ok ~service ~acks ~gaps ~rate ~limit_us:slo.limit_us)

(* ------------------------------------------------------------------ *)
(* Reads shared by [ingest]'s post-recovery read-back and [query]. *)

(** A multi-get: one batched lookup (Sec. 3.2) of the sorted distinct
    keys against the primary index. *)
let multi_get d keys =
  let ks = List.sort_uniq Int.compare (Array.to_list keys) |> Array.of_list in
  let out = ref [] in
  D.Prim.lookup_batch (D.primary d) D.Prim.default_lookup_opts
    (D.Prim.plain_keys ks) ~emit:(fun pk row ->
      out :=
        ( pk,
          match row with
          | Some { D.Prim.value = Lsm_tree.Entry.Put r; _ } -> Some r
          | _ -> None )
        :: !out);
  !out

type read =
  | Point of int
  | Multi of int array
  | Secondary of int * int
  | Scan of int * int

let class_of = function
  | Point _ -> "point"
  | Multi _ -> "multi"
  | Secondary _ -> "secondary"
  | Scan _ -> "scan"

type reply =
  | R_point of Tweet.t option
  | R_multi of (int * Tweet.t option) list
  | R_rows of Tweet.t list

(* [reads_per_class] of each read class over [keys], in a seeded order;
   secondary ranges cover 0.1% of the user_id domain, scans a 1/200 slice
   of the creation-time domain [0, now] that starts within its newest 5%
   (recent data, which range filters can prune down to the newest
   components under every strategy). *)
let gen_reads ~seed ~keys ~now_created =
  let rng = Rng.create seed in
  let qgen = Query_gen.create ~seed:((seed * 17) + 3) () in
  let key () = keys.(Rng.int rng (Array.length keys)) in
  let width = max 1 (now_created / 200) in
  let reads =
    Array.concat
      [
        Array.init reads_per_class (fun _ -> Point (key ()));
        Array.init reads_per_class (fun _ -> Multi (Array.init 8 (fun _ -> key ())));
        Array.init reads_per_class (fun _ ->
            let lo, hi = Query_gen.user_range qgen ~selectivity:0.001 in
            Secondary (lo, hi));
        Array.init reads_per_class (fun _ ->
            let lo = now_created - width - Rng.int rng (max 1 (now_created / 20)) in
            Scan (lo, lo + width));
      ]
  in
  Rng.shuffle rng reads;
  reads

let exec_read d = function
  | Point pk -> Spans.with_ "core.point_query" (fun () -> R_point (D.point_query d pk))
  | Multi ks -> Spans.with_ "core.multi_get" (fun () -> R_multi (multi_get d ks))
  | Secondary (lo, hi) ->
      Spans.with_ "core.query_secondary" (fun () ->
          R_rows (D.query_secondary d ~sec:"user_id" ~lo ~hi ~mode:`Timestamp ()))
  | Scan (tlo, thi) ->
      Spans.with_ "core.time_range" (fun () ->
          let acc = ref [] in
          ignore (D.query_time_range d ~tlo ~thi ~f:(fun r -> acc := r :: !acc));
          R_rows !acc)

(* Every point and multi-get reply is checked; every [check_every]-th
   secondary and scan reply is checked against a brute-force filter of
   the shadow (each costs a pass over it). *)
let check_read shadow i read reply =
  match (read, reply) with
  | Point pk, R_point got -> Shadow.check_point shadow pk got
  | Multi ks, R_multi got ->
      let expect = List.sort_uniq Int.compare (Array.to_list ks) in
      Shadow.verdict shadow
        (List.sort_uniq Int.compare (List.map fst got) = expect);
      List.iter (fun (pk, r) -> Shadow.check_point shadow pk r) got
  | Secondary (lo, hi), R_rows got ->
      if i mod check_every = 0 then Shadow.check_secondary shadow ~lo ~hi got
  | Scan (tlo, thi), R_rows got ->
      if i mod check_every = 0 then Shadow.check_scan shadow ~tlo ~thi got
  | _ -> Shadow.verdict shadow false

(* Run [reads] against [d], adding each simulated latency to [l]; with
   [all], also to the "all" class. *)
let run_reads ~all d env l reads =
  Array.map
    (fun read ->
      let s0 = Env.now_us env in
      let reply = exec_read d read in
      let us = Env.now_us env -. s0 in
      Lat.add (lat l (class_of read)) us;
      if all then Lat.add (lat l "all") us;
      (us, reply))
    reads

let span_layers () =
  List.concat_map
    (fun c ->
      let a = Spans.find ("core." ^ c) in
      [ ("core." ^ c ^ ".host_s", a.Spans.total_s);
        ("core." ^ c ^ ".alloc_words",
          if a.Spans.count = 0 then 0.0 else a.Spans.words /. Float.of_int a.Spans.count) ])
    Catalog.core_calls

(* ------------------------------------------------------------------ *)
(* ingest *)

let gen_txns ~seed =
  let rng = Rng.create seed in
  let gen = Tweet.create_gen ~seed:((seed * 31) + 1) () in
  let ids = Array.make (ingest_txns * txn_records) 0 and n_ids = ref 0 in
  Array.init ingest_txns (fun _ ->
      Array.init txn_records (fun _ ->
          if !n_ids > 0 && Rng.bool rng then
            Tweet.with_id gen ids.(Rng.int rng !n_ids)
          else begin
            let tw = Tweet.fresh gen in
            ids.(!n_ids) <- tw.Tweet.id;
            incr n_ids;
            tw
          end))

let ingest ~seed ~slo ~full ~check =
  let t0 = now () in
  let txns = Spans.with_ "workload.gen" (fun () -> gen_txns ~seed) in
  let gen_s = now () -. t0 in
  let env = Setup.hdd_env scale in
  let d = Setup.dataset ~strategy:Strategy.mutable_bitmap env scale in
  let t = T.create d in
  T.set_group_commit t ~batch:group_commit;
  let wal = T.wal t in
  let budget = (D.config d).D.mem_budget in
  let shadow = Shadow.create () in
  let l = new_lats () in
  let setup_s = now () -. t0 in
  (* Timed phase: closed-loop transactions.  A transaction is
     acknowledged when the group holding its commit record is fsynced,
     during transaction [cur] (its own or a later one that seals the
     group); only then does the shadow take its records. *)
  let pending = Queue.create () in
  let acked = ref 0 in
  let acks = Array.make ingest_txns { Lat.op = -1; at_us = 0.0 } in
  let ack ~cur ~cur_s0 =
    let at = Env.now_us env in
    while !acked < (Wal.sync_stats wal).Wal.durable_commits do
      let i, s0, recs = Queue.pop pending in
      Array.iter (Shadow.ack shadow) recs;
      Lat.add (lat l "ingest") (at -. s0);
      Lat.add (lat l "all") (at -. s0);
      acks.(i) <- { Lat.op = cur; at_us = at -. cur_s0 };
      incr acked
    done
  in
  let service = Array.make ingest_txns 0.0 in
  let before = Probe.take [ env ] in
  let sim0 = Env.now_us env in
  let a0 = alloc () and h0 = now () in
  Array.iteri
    (fun i recs ->
      let s0 = Env.now_us env in
      let txn = T.begin_txn t in
      Array.iter (fun r -> Spans.with_ "core.upsert" (fun () -> T.upsert t txn r)) recs;
      Spans.with_ "core.commit" (fun () -> T.commit t txn);
      Queue.push (i, s0, recs) pending;
      ack ~cur:i ~cur_s0:s0;
      (* The memory-budget flush policy of an auto-maintained dataset,
         applied between transactions (flushes need quiescence). *)
      if D.total_mem_bytes d >= budget then begin
        Wal.sync wal;
        ack ~cur:i ~cur_s0:s0;
        Spans.with_ "core.flush" (fun () -> T.flush t)
      end;
      service.(i) <- Env.now_us env -. s0)
    txns;
  let timed_s = now () -. h0 and alloc_words = alloc () -. a0 in
  let heap_mb = heap_mb () in
  let sim_s = (Env.now_us env -. sim0) /. 1e6 in
  let records = ingest_txns * txn_records in
  let after = Probe.take [ env ] in
  let phase = Probe.diff ~since:before after in
  let write_amp = Probe.write_amp ~page_size:(Env.page_size env) after in
  let space_amp =
    Float.of_int (D.total_disk_bytes d) /. Float.of_int (Shadow.live_bytes shadow)
  in
  let sync = Wal.sync_stats wal in
  let dstats = D.stats d in
  let makespan = (D.maint_stats d).Lsm_core.Dataset.maint_makespan_us in
  (* Crash, recover, and read back every acknowledged key; then time the
     other read classes on the recovered data. *)
  let verify () =
    let r0 = now () and c0 = Env.now_us env in
    Spans.with_ "txn.recover" (fun () ->
        T.crash t;
        T.recover t);
    let recovered = (now () -. r0, Env.now_us env -. c0) in
    (* The open group never reached media: its writes must be gone,
       leaving the latest acknowledged version (or nothing). *)
    Queue.iter
      (fun (_, _, recs) ->
        Array.iter
          (fun (r : Tweet.t) ->
            Shadow.check_point shadow r.Tweet.id (D.point_query d r.Tweet.id))
          recs)
      pending;
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) shadow.Shadow.latest [] in
    let keys = Array.of_list (List.sort Int.compare keys) in
    Rng.shuffle (Rng.create (seed + 11)) keys;
    let readback = run_reads ~all:false d env l (Array.map (fun pk -> Point pk) keys) in
    Array.iteri (fun i (_, reply) -> check_read shadow i (Point keys.(i)) reply) readback;
    let now_created = txns.(ingest_txns - 1).(txn_records - 1).Tweet.created_at in
    let reads =
      gen_reads ~seed:(seed + 13) ~keys ~now_created
      |> Array.to_list
      |> List.filter (function Point _ -> false | _ -> true)
      |> Array.of_list
    in
    let replies = run_reads ~all:false d env l reads in
    Array.iteri (fun i read -> check_read shadow i read (snd replies.(i))) reads;
    recovered
  in
  let recover_s, recover_us = if check then verify () else (0.0, 0.0) in
  let lat_model, samples = latency_model l in
  let model =
    [ ("sim_ops_per_s", Float.of_int records /. sim_s); ("write_amp", write_amp) ]
    @ lat_model
    @ (if full then [ ("max_rps_at_slo", replay_rate ~seed ~slo ~acks service) ] else [])
  in
  {
    setup_s; gen_s; timed_s; ops = records; alloc_words; heap_mb; model; samples;
    attempted = shadow.Shadow.attempted; failed = shadow.Shadow.failed;
    layers =
      Probe.layers ~ops:records phase
      @ span_layers ()
      @ [
          ("core.repair_us", dstats.D.repair_us);
          ("core.maint.makespan_us", makespan);
          ("lsm_tree.space_amp", space_amp);
          ("txn.fsyncs", Float.of_int sync.Wal.fsyncs);
          ("txn.fsync_us", sync.Wal.fsync_time_us);
          ("txn.commits_per_fsync",
            Float.of_int sync.Wal.durable_commits /. Float.of_int (max 1 sync.Wal.fsyncs));
          ("txn.recover.host_s", recover_s);
          ("txn.recover.sim_us", recover_us);
        ];
  }

(* ------------------------------------------------------------------ *)
(* query *)

let gen_load ~seed =
  let rng = Rng.create seed in
  let gen = Tweet.create_gen ~seed:((seed * 31) + 1) () in
  let fresh = Array.init query_load (fun _ -> Tweet.fresh gen) in
  let updates =
    Array.init query_updates (fun _ ->
        Tweet.with_id gen fresh.(Rng.int rng query_load).Tweet.id)
  in
  Array.append fresh updates

let query ~seed ~slo ~full ~check =
  let t0 = now () in
  let load, reads =
    Spans.with_ "workload.gen" (fun () ->
        let load = gen_load ~seed in
        let keys = Array.init query_load (fun i -> load.(i).Tweet.id) in
        let now_created = load.(Array.length load - 1).Tweet.created_at in
        (load, gen_reads ~seed:(seed + 13) ~keys ~now_created))
  in
  let gen_s = now () -. t0 in
  let env = Setup.hdd_env scale in
  let d = Setup.dataset ~strategy:Strategy.validation_no_repair env scale in
  let shadow = Shadow.create () in
  let l = new_lats () in
  (* Set-up: the update-heavy load, auto-maintained.  Its per-upsert
     latency is this workload's ingest class; the timed phase is
     read-only. *)
  Array.iter
    (fun r ->
      let s0 = Env.now_us env in
      D.upsert d r;
      Lat.add (lat l "ingest") (Env.now_us env -. s0);
      Shadow.ack shadow r)
    load;
  let setup_s = now () -. t0 in
  let before = Probe.take [ env ] in
  let sim0 = Env.now_us env in
  let a0 = alloc () and h0 = now () in
  let replies = run_reads ~all:true d env l reads in
  let timed_s = now () -. h0 and alloc_words = alloc () -. a0 in
  let heap_mb = heap_mb () in
  let sim_s = (Env.now_us env -. sim0) /. 1e6 in
  let ops = Array.length reads in
  let after = Probe.take [ env ] in
  let phase = Probe.diff ~since:before after in
  let write_amp = Probe.write_amp ~page_size:(Env.page_size env) after in
  let space_amp =
    Float.of_int (D.total_disk_bytes d) /. Float.of_int (Shadow.live_bytes shadow)
  in
  if check then
    Array.iteri (fun i read -> check_read shadow i read (snd replies.(i))) reads;
  let lat_model, samples = latency_model l in
  let model =
    [ ("sim_ops_per_s", Float.of_int ops /. sim_s); ("write_amp", write_amp) ]
    @ lat_model
    @
    if full then
      let service = Array.map fst replies in
      let acks = Array.mapi (fun i us -> { Lat.op = i; at_us = us }) service in
      [ ("max_rps_at_slo", replay_rate ~seed ~slo ~acks service) ]
    else []
  in
  {
    setup_s; gen_s; timed_s; ops; alloc_words; heap_mb; model; samples;
    attempted = shadow.Shadow.attempted; failed = shadow.Shadow.failed;
    layers =
      Probe.layers ~ops phase @ span_layers () @ [ ("lsm_tree.space_amp", space_amp) ];
  }

(* ------------------------------------------------------------------ *)
(* serve *)

let serve_meets ~slo (r : Driver.result) =
  let all = List.find (fun c -> c.Driver.cls = "all") r.Driver.classes in
  all.Driver.p99_us <= slo.limit_us && not r.Driver.saturated

(* [Driver.run] builds and preloads its own system and does not expose
   the boundary between set-up and serving.  So set-up time is measured
   on an identical [Driver.build] + [Driver.preload] of the same
   configuration, and the host rate counts requests over the whole
   [Driver.run], its own set-up included. *)
let serve ~seed ~slo ~full ~check:_ =
  let cfg = serve_config ~seed ~rate:serve_rate_rps ~duration:serve_duration_s in
  let t0 = now () in
  let sys = Spans.with_ "serve.build" (fun () -> Driver.build cfg) in
  let build_s = now () -. t0 in
  Spans.with_ "serve.preload" (fun () -> Driver.preload sys cfg);
  let setup_s = now () -. t0 in
  Obs_hub.reset ();
  let a0 = alloc () and h0 = now () in
  let r = Spans.with_ "serve.run" (fun () -> Driver.run cfg) in
  let run_s = now () -. h0 and alloc_words = alloc () -. a0 in
  let heap_mb = heap_mb () in
  let envs = Obs_hub.observed () in
  let phase = Probe.take envs in
  let page = match envs with e :: _ -> Env.page_size e | [] -> 1 in
  (* Answer checks: Driver.run returns no replies; its class counts must
     add up and a clean run must not touch the resilience machinery. *)
  let checks = Shadow.create () in
  let by_class = List.filter (fun c -> c.Driver.cls <> "all") r.Driver.classes in
  Shadow.verdict checks
    (List.fold_left (fun acc c -> acc + c.Driver.count) 0 by_class = r.Driver.requests);
  List.iter
    (fun p ->
      Shadow.verdict checks
        (p.Driver.pr_retries = 0 && p.Driver.pr_exhausted = 0
        && p.Driver.pr_checksum = 0 && p.Driver.pr_quarantines = 0
        && p.Driver.pr_rebuilds = 0))
    r.Driver.resil;
  let cls name = List.find (fun c -> c.Driver.cls = name) r.Driver.classes in
  let all = cls "all" in
  (* Modelled capacity and the SLO rate search (full rounds only). *)
  let search =
    if not full then []
    else begin
      let cap = Driver.estimate_capacity ~ops:serve_capacity_ops cfg in
      let probe rate =
        serve_meets ~slo
          (Driver.run (serve_config ~seed ~rate ~duration:serve_probe_duration_s))
      in
      [ ("sim_ops_per_s", cap);
        ("max_rps_at_slo", Lat.highest ~lo:(cap /. 16.0) ~hi:cap slo.ladder probe) ]
    end
  in
  let model =
    [ ("p50_us", all.Driver.p50_us); ("p99_us", all.Driver.p99_us) ]
    @ List.map (fun c -> (c ^ "_p99_us", (cls c).Driver.p99_us)) classes
    @ search
    @ if envs = [] then [] else [ ("write_amp", Probe.write_amp ~page_size:page phase) ]
  in
  {
    setup_s; gen_s = 0.0; timed_s = run_s; ops = r.Driver.requests;
    alloc_words; heap_mb; model;
    samples = List.map (fun c -> (c.Driver.cls, c.Driver.count)) r.Driver.classes;
    attempted = checks.Shadow.attempted; failed = checks.Shadow.failed;
    layers =
      Probe.layers ~ops:r.Driver.requests phase
      @ span_layers ()
      @ List.concat_map
          (fun c ->
            let s = cls c in
            [ ("serve." ^ c ^ ".queue_us", s.Driver.mean_queue_us);
              ("serve." ^ c ^ ".service_us", s.Driver.mean_service_us) ])
          classes
      @ [
          ("serve.evictions", Float.of_int r.Driver.evictions);
          ("serve.peak_pre_mem_bytes", Float.of_int r.Driver.peak_pre_mem_bytes);
          ("serve.backlog_frac", r.Driver.backlog_frac);
          ("serve.queue_growth", r.Driver.queue_growth);
          ("serve.build_s", build_s);
          ("serve.preload_s", setup_s -. build_s);
          ("serve.run_s", run_s);
        ];
  }

(** A workload: its round, how many independent systems (sub-seeds) a
    run builds, and on how many of them it runs the rate search.  One
    system's tail latency depends on which merges its flushes cascade
    into, and open-loop queueing on [serve] amplifies that: over 80
    systems its per-system p99s have quartiles about 18% apart.  So its
    medians take more systems. *)
type workload = {
  round : seed:int -> slo:slo -> full:bool -> check:bool -> round;
  systems : int;
  searched : int;
}

let by_name =
  [ ("ingest", { round = ingest; systems = 11; searched = 5 });
    ("query", { round = query; systems = 11; searched = 5 });
    ("serve", { round = serve; systems = 17; searched = 7 }) ]
