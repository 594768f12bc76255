(* Every metric the benchmark prints: name, unit, and which direction is
   better.  BENCHMARK.json declares the same lists; run.py refuses to
   report when they disagree. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("host_ops_per_s", "1/s", Higher);
    ("alloc_words_per_op", "words/op", Lower);
    ("heap_peak_mb", "MB", Lower);
    ("sim_ops_per_s", "1/s", Higher);
    ("max_rps_at_slo", "1/s", Higher);
    ("p50_us", "us", Lower);
    ("p99_us", "us", Lower);
    ("ingest_p99_us", "us", Lower);
    ("point_p99_us", "us", Lower);
    ("multi_p99_us", "us", Lower);
    ("secondary_p99_us", "us", Lower);
    ("scan_p99_us", "us", Lower);
    ("write_amp", "ratio", Lower);
    ("success_rate", "ratio", Higher);
  ]

(** Operation classes, as the serve driver names them. *)
let classes = [ "ingest"; "point"; "multi"; "secondary"; "scan" ]

(** Engine calls timed by host spans and reported per layer. *)
let core_calls = [ "upsert"; "commit"; "query_secondary"; "point_query" ]

let per_layer =
  [ ("workload.gen_s", "s", Lower) ]
  @ List.concat_map
      (fun c ->
        [ ("serve." ^ c ^ ".queue_us", "us", Lower);
          ("serve." ^ c ^ ".service_us", "us", Lower) ])
      classes
  @ [
      ("serve.evictions", "count", Lower);
      ("serve.peak_pre_mem_bytes", "bytes", Lower);
      ("serve.backlog_frac", "ratio", Lower);
      ("serve.queue_growth", "ratio", Lower);
      ("serve.build_s", "s", Lower);
      ("serve.preload_s", "s", Lower);
      ("serve.run_s", "s", Lower);
    ]
  @ List.concat_map
      (fun c ->
        [ ("core." ^ c ^ ".host_s", "s", Lower);
          ("core." ^ c ^ ".alloc_words", "words/op", Lower) ])
      core_calls
  @ [
      ("core.flush_us", "us", Lower);
      ("core.merge_us", "us", Lower);
      ("core.repair_us", "us", Lower);
      ("core.flushes", "count", Lower);
      ("core.merges", "count", Lower);
      ("core.maint.makespan_us", "us", Lower);
      ("core.validate.self_us", "us", Lower);
      ("txn.fsyncs", "count", Lower);
      ("txn.fsync_us", "us", Lower);
      ("txn.commits_per_fsync", "ratio", Higher);
      ("txn.recover.host_s", "s", Lower);
      ("txn.recover.sim_us", "us", Lower);
      ("lsm_tree.flush_bytes", "bytes", Lower);
      ("lsm_tree.merge_read_bytes", "bytes", Lower);
      ("lsm_tree.merge_written_bytes", "bytes", Lower);
      ("lsm_tree.merge_keep_ratio", "ratio", Lower);
      ("lsm_tree.space_amp", "ratio", Lower);
      ("lsm_tree.lookup.self_us", "us", Lower);
      ("lsm_tree.flush.self_us", "us", Lower);
      ("lsm_tree.merge.self_us", "us", Lower);
      ("lsm_tree.view_build.self_us", "us", Lower);
      ("lsm_tree.view.builds", "count", Lower);
      ("lsm_tree.view.skip_ratio", "ratio", Lower);
      ("lsm_tree.view.fallbacks", "count", Lower);
      ("btree.comparisons_per_op", "count/op", Lower);
      ("btree.cursor_restarts_per_op", "count/op", Lower);
      ("bloom.probes_per_op", "count/op", Lower);
      ("bloom.negative_ratio", "ratio", Higher);
      ("bloom.fp_ratio", "ratio", Lower);
      ("bloom.cache_lines_per_probe", "lines/probe", Lower);
      ("sim.clock_us", "us", Lower);
      ("sim.unattributed_us", "us", Lower);
      ("sim.cache.hit_ratio", "ratio", Higher);
      ("sim.cache.misses_per_op", "count/op", Lower);
      ("sim.device.pages_read_per_op", "count/op", Lower);
      ("sim.device.rand_reads_per_op", "count/op", Lower);
      ("sim.device.seq_reads_per_op", "count/op", Lower);
      ("sim.device.pages_written", "count", Lower);
      ("sim.device.write_batches", "count", Lower);
      ("obs.trace_overhead", "ratio", Higher);
    ]

(** Which latency class's samples stand behind an end-to-end metric. *)
let sample_class name =
  if name = "p50_us" || name = "p99_us" then Some "all"
  else if Filename.check_suffix name "_p99_us" then
    Some (Filename.chop_suffix name "_p99_us")
  else None
