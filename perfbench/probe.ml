(* Snapshots of the engine's own counters, read only through its public
   getters ([Env.stats], [Env.amp], [Env.view_stats], the simulated-clock
   tracer's aggregates), summed over a set of environments.  The
   difference of two snapshots is the work a phase did; [layers] turns it
   into per-layer metrics. *)

module Env = Lsm_sim.Env
module Tracer = Lsm_obs.Tracer

type span_tot = { count : int; total_us : float; self_us : float }

type t = {
  counts : (string * int) list;  (** Io_stats, Ampstats and view counters *)
  clock_us : float;
  top_us : float;  (** simulated time covered by top-level tracer spans *)
  spans : (string * span_tot) list;
}

let env_counts env =
  let v = Env.view_stats env in
  Lsm_sim.Io_stats.fields (Env.stats env)
  @ List.map (fun (k, n) -> ("amp." ^ k, n)) (Lsm_obs.Ampstats.fields (Env.amp env))
  @ [ ("view.builds", v.Env.builds); ("view.rows_skipped", v.Env.rows_skipped);
      ("view.rows_emitted", v.Env.rows_emitted);
      ("view.fallbacks", v.Env.fallbacks) ]

let take envs =
  let counts = Hashtbl.create 32 and spans = Hashtbl.create 16 in
  List.iter
    (fun env ->
      List.iter
        (fun (k, n) ->
          Hashtbl.replace counts k (n + Option.value ~default:0 (Hashtbl.find_opt counts k)))
        (env_counts env);
      List.iter
        (fun (name, (a : Tracer.agg)) ->
          let c =
            Option.value (Hashtbl.find_opt spans name)
              ~default:{ count = 0; total_us = 0.0; self_us = 0.0 }
          in
          Hashtbl.replace spans name
            { count = c.count + a.Tracer.a_count;
              total_us = c.total_us +. a.Tracer.a_total_us;
              self_us = c.self_us +. a.Tracer.a_self_us })
        (Tracer.aggregates (Env.tracer env)))
    envs;
  {
    counts = List.of_seq (Hashtbl.to_seq counts);
    clock_us = List.fold_left (fun acc e -> acc +. Env.now_us e) 0.0 envs;
    top_us =
      List.fold_left (fun acc e -> acc +. Tracer.top_level_us (Env.tracer e)) 0.0 envs;
    spans = List.of_seq (Hashtbl.to_seq spans);
  }

(** [diff ~since now]: the work done between two snapshots. *)
let diff ~since now =
  let c0 k = Option.value ~default:0 (List.assoc_opt k since.counts) in
  let s0 k =
    Option.value ~default:{ count = 0; total_us = 0.0; self_us = 0.0 }
      (List.assoc_opt k since.spans)
  in
  {
    counts = List.map (fun (k, n) -> (k, n - c0 k)) now.counts;
    clock_us = now.clock_us -. since.clock_us;
    top_us = now.top_us -. since.top_us;
    spans =
      List.map
        (fun (k, s) ->
          let b = s0 k in
          ( k,
            { count = s.count - b.count; total_us = s.total_us -. b.total_us;
              self_us = s.self_us -. b.self_us } ))
        now.spans;
  }

let count t k = Float.of_int (Option.value ~default:0 (List.assoc_opt k t.counts))

let span t k =
  Option.value ~default:{ count = 0; total_us = 0.0; self_us = 0.0 }
    (List.assoc_opt k t.spans)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(** Device bytes written per byte flushed from the memory components (the
    first write of every index entry): flush, merge and view writes over
    the phase.  Needs only environment counters, so it is the same
    definition on every workload, serve included. *)
let write_amp ~page_size t =
  ratio (count t "pages_written" *. Float.of_int page_size) (count t "amp.flush_bytes")

(** Per-layer metrics of one phase that performed [ops] operations. *)
let layers ~ops t =
  let per_op k = ratio (count t k) (Float.of_int ops) in
  let probes = count t "bloom_probes" and negs = count t "bloom_negatives" in
  let hits = count t "cache_hits" and misses = count t "cache_misses" in
  let skipped = count t "view.rows_skipped" in
  [
    ("core.flush_us", (span t "dataset.flush").total_us);
    ("core.merge_us", (span t "dataset.merge").total_us);
    ("core.flushes", Float.of_int (span t "dataset.flush").count);
    ("core.merges", Float.of_int (span t "dataset.merge").count);
    ("core.validate.self_us", (span t "validate.timestamp").self_us);
    ("lsm_tree.flush_bytes", count t "amp.flush_bytes");
    ("lsm_tree.merge_read_bytes", count t "amp.merge_read_bytes");
    ("lsm_tree.merge_written_bytes", count t "amp.merge_written_bytes");
    ("lsm_tree.merge_keep_ratio", ratio (count t "amp.merge_rows_out") (count t "amp.merge_rows_in"));
    ("lsm_tree.lookup.self_us", (span t "lsm.lookup").self_us);
    ("lsm_tree.flush.self_us", (span t "lsm.flush").self_us);
    ("lsm_tree.merge.self_us", (span t "lsm.merge").self_us);
    ("lsm_tree.view_build.self_us", (span t "lsm.view.build").self_us);
    ("lsm_tree.view.builds", count t "view.builds");
    ("lsm_tree.view.skip_ratio", ratio skipped (skipped +. count t "view.rows_emitted"));
    ("lsm_tree.view.fallbacks", count t "view.fallbacks");
    ("btree.comparisons_per_op", per_op "comparisons");
    ("btree.cursor_restarts_per_op", per_op "cursor_restarts");
    ("bloom.probes_per_op", per_op "bloom_probes");
    ("bloom.negative_ratio", ratio negs probes);
    ("bloom.fp_ratio", ratio (count t "bloom_fps") (probes -. negs));
    ("bloom.cache_lines_per_probe", ratio (count t "bloom_cache_lines") probes);
    ("sim.clock_us", t.clock_us);
    ("sim.unattributed_us", t.clock_us -. t.top_us);
    ("sim.cache.hit_ratio", ratio hits (hits +. misses));
    ("sim.cache.misses_per_op", per_op "cache_misses");
    ("sim.device.pages_read_per_op", per_op "pages_read");
    ("sim.device.rand_reads_per_op", per_op "rand_reads");
    ("sim.device.seq_reads_per_op", per_op "seq_reads");
    ("sim.device.pages_written", count t "pages_written");
    ("sim.device.write_batches", count t "write_batches");
  ]
