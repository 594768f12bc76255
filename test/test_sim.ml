(* Tests for Lsm_sim: devices, buffer cache, environment cost accounting,
   and phantom files. *)

open Lsm_sim

let mk_env ?(cache_bytes = 4 * Device.hdd.Device.page_size) () =
  Env.create ~cache_bytes Device.hdd

(* ------------------------------------------------------------------ *)
(* Buffer cache *)

let test_cache_hit_miss () =
  let c = Buffer_cache.create ~capacity_pages:2 in
  Alcotest.(check bool) "miss" false (Buffer_cache.touch c ~file:1 ~page:0);
  Buffer_cache.insert c ~file:1 ~page:0;
  Alcotest.(check bool) "hit" true (Buffer_cache.touch c ~file:1 ~page:0);
  Alcotest.(check int) "size" 1 (Buffer_cache.size c)

let test_cache_lru_eviction () =
  let c = Buffer_cache.create ~capacity_pages:2 in
  Buffer_cache.insert c ~file:1 ~page:0;
  Buffer_cache.insert c ~file:1 ~page:1;
  (* Touch page 0 so page 1 becomes LRU. *)
  ignore (Buffer_cache.touch c ~file:1 ~page:0);
  Buffer_cache.insert c ~file:1 ~page:2;
  Alcotest.(check bool) "page 0 kept" true (Buffer_cache.mem c ~file:1 ~page:0);
  Alcotest.(check bool) "page 1 evicted" false
    (Buffer_cache.mem c ~file:1 ~page:1);
  Alcotest.(check bool) "page 2 resident" true
    (Buffer_cache.mem c ~file:1 ~page:2);
  Alcotest.(check int) "at capacity" 2 (Buffer_cache.size c)

let test_cache_drop_file () =
  let c = Buffer_cache.create ~capacity_pages:10 in
  Buffer_cache.insert c ~file:1 ~page:0;
  Buffer_cache.insert c ~file:2 ~page:0;
  Buffer_cache.insert c ~file:1 ~page:5;
  Buffer_cache.drop_file c 1;
  Alcotest.(check int) "only file 2 left" 1 (Buffer_cache.size c);
  Alcotest.(check bool) "file2 resident" true
    (Buffer_cache.mem c ~file:2 ~page:0)

let test_cache_zero_capacity () =
  let c = Buffer_cache.create ~capacity_pages:0 in
  Buffer_cache.insert c ~file:1 ~page:0;
  Alcotest.(check bool) "never caches" false
    (Buffer_cache.mem c ~file:1 ~page:0)

let test_cache_lru_chain_stress () =
  (* Insert far more than capacity; size must stay at capacity and the
     resident set must be the most recent inserts. *)
  let cap = 8 in
  let c = Buffer_cache.create ~capacity_pages:cap in
  for p = 0 to 99 do
    Buffer_cache.insert c ~file:0 ~page:p
  done;
  Alcotest.(check int) "size at cap" cap (Buffer_cache.size c);
  for p = 100 - cap to 99 do
    Alcotest.(check bool) "recent resident" true
      (Buffer_cache.mem c ~file:0 ~page:p)
  done;
  Alcotest.(check bool) "old gone" false (Buffer_cache.mem c ~file:0 ~page:0)

let test_cache_packed_key_bounds () =
  let c = Buffer_cache.create ~capacity_pages:8 in
  let top_file = (1 lsl 31) - 1 and top_page = (1 lsl 32) - 1 in
  (* The extreme valid ids pack to distinct keys, and [drop_file]
     recovers the file id from a packed key. *)
  Buffer_cache.insert c ~file:top_file ~page:top_page;
  Buffer_cache.insert c ~file:top_file ~page:0;
  Buffer_cache.insert c ~file:0 ~page:top_page;
  Alcotest.(check int) "three distinct pages" 3 (Buffer_cache.size c);
  Alcotest.(check bool) "no alias at (0, 0)" false
    (Buffer_cache.mem c ~file:0 ~page:0);
  Buffer_cache.drop_file c top_file;
  Alcotest.(check int) "top file dropped" 1 (Buffer_cache.size c);
  Alcotest.(check bool) "other file kept" true
    (Buffer_cache.mem c ~file:0 ~page:top_page);
  (* Out-of-range ids are rejected, never aliased: (1, 2^32) would pack
     onto the resident (2, 0). *)
  Buffer_cache.insert c ~file:2 ~page:0;
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "page 2^32" (fun () -> Buffer_cache.mem c ~file:1 ~page:(1 lsl 32));
  rejects "file 2^32" (fun () -> Buffer_cache.touch c ~file:(1 lsl 32) ~page:0);
  rejects "file 2^31" (fun () ->
      Buffer_cache.insert c ~file:(1 lsl 31) ~page:0);
  rejects "negative page" (fun () -> Buffer_cache.remove c ~file:0 ~page:(-1));
  rejects "negative file" (fun () -> Buffer_cache.insert c ~file:(-1) ~page:0);
  Alcotest.(check int) "rejections change nothing" 2 (Buffer_cache.size c)

(* A reference LRU model — MRU-first association list over the same op
   alphabet — run in lockstep with the real cache.  After every op the
   sizes must match and every key must agree on residency; [Mem] probes
   are interleaved to prove residency checks never perturb recency. *)
type cache_op =
  | Insert of int * int
  | Touch of int * int
  | Mem of int * int
  | Remove of int * int
  | Drop_file of int
  | Clear

let cache_op_gen =
  QCheck2.Gen.(
    let key = pair (int_range 0 2) (int_range 0 5) in
    frequency
      [
        (6, map (fun (f, p) -> Insert (f, p)) key);
        (3, map (fun (f, p) -> Touch (f, p)) key);
        (2, map (fun (f, p) -> Mem (f, p)) key);
        (2, map (fun (f, p) -> Remove (f, p)) key);
        (1, map (fun f -> Drop_file f) (int_range 0 2));
        (1, return Clear);
      ])

let model_insert cap model k =
  if cap = 0 then model
  else if List.mem k model then k :: List.filter (( <> ) k) model
  else
    let model = if List.length model >= cap then List.filteri (fun i _ -> i < List.length model - 1) model else model in
    k :: model

let prop_cache_matches_model =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:500 ~name:"lru matches reference model"
       Gen.(pair (int_range 1 4) (list_size (int_range 0 60) cache_op_gen))
       (fun (cap, ops) ->
         let c = Buffer_cache.create ~capacity_pages:cap in
         let model = ref [] in
         let agree () =
           Buffer_cache.size c = List.length !model
           && List.for_all
                (fun f ->
                  List.for_all
                    (fun p ->
                      Buffer_cache.mem c ~file:f ~page:p
                      = List.mem (f, p) !model)
                    [ 0; 1; 2; 3; 4; 5 ])
                [ 0; 1; 2 ]
         in
         List.for_all
           (fun op ->
             (match op with
             | Insert (f, p) ->
                 Buffer_cache.insert c ~file:f ~page:p;
                 model := model_insert cap !model (f, p)
             | Touch (f, p) ->
                 let hit = Buffer_cache.touch c ~file:f ~page:p in
                 let mhit = List.mem (f, p) !model in
                 if mhit then
                   model := (f, p) :: List.filter (( <> ) (f, p)) !model;
                 if hit <> mhit then failwith "touch hit mismatch"
             | Mem (f, p) ->
                 (* must not touch recency — checked by later evictions *)
                 ignore (Buffer_cache.mem c ~file:f ~page:p)
             | Remove (f, p) ->
                 Buffer_cache.remove c ~file:f ~page:p;
                 model := List.filter (( <> ) (f, p)) !model
             | Drop_file f ->
                 Buffer_cache.drop_file c f;
                 model := List.filter (fun (f', _) -> f' <> f) !model
             | Clear ->
                 Buffer_cache.clear c;
                 model := []);
             agree ())
           ops))

(* Differential against a list-based reference LRU, MRU first — the model
   is the oracle.  Every [touch] and [mem] answer, the size and the victim
   of every eviction must match, over capacities 0-64 and files 0-5.  A
   [Touch k] followed by [Insert k] is [Env.read_page]'s miss-then-admit
   sequence, which admits into the slot the miss probe ended on — also
   after a removal in between has shifted the table under it. *)
let prop_cache_differential =
  let open QCheck2 in
  let key = Gen.(pair (int_range 0 5) (int_range 0 15)) in
  let op =
    Gen.(
      frequency
        [
          (5, map (fun (f, p) -> [ Insert (f, p) ]) key);
          (3, map (fun (f, p) -> [ Touch (f, p) ]) key);
          (3, map (fun (f, p) -> [ Touch (f, p); Insert (f, p) ]) key);
          ( 2,
            map2
              (fun (f, p) (f', p') ->
                [ Touch (f, p); Remove (f', p'); Insert (f, p) ])
              key key );
          (2, map (fun (f, p) -> [ Mem (f, p) ]) key);
          (2, map (fun (f, p) -> [ Remove (f, p) ]) key);
          (1, map (fun f -> [ Drop_file f ]) (int_range 0 5));
          (1, return [ Clear ]);
        ])
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:200 ~name:"differential vs reference lru"
       Gen.(pair (int_range 0 64) (map List.concat (list_size (int_range 0 300) op)))
       (fun (cap, ops) ->
         let c = Buffer_cache.create ~capacity_pages:cap in
         let model = ref [] in
         let resident (f, p) = Buffer_cache.mem c ~file:f ~page:p in
         let drop k = model := List.filter (( <> ) k) !model in
         List.for_all
           (fun op ->
             let answer_ok =
               match op with
               | Insert (f, p) ->
                   let before = !model in
                   Buffer_cache.insert c ~file:f ~page:p;
                   model := model_insert cap before (f, p);
                   (* The model's victim, if any, left the cache too. *)
                   List.for_all
                     (fun k -> List.mem k !model || not (resident k))
                     before
               | Touch (f, p) ->
                   let hit = Buffer_cache.touch c ~file:f ~page:p in
                   let mhit = List.mem (f, p) !model in
                   if mhit then model := (f, p) :: List.filter (( <> ) (f, p)) !model;
                   hit = mhit
               | Mem (f, p) -> resident (f, p) = List.mem (f, p) !model
               | Remove (f, p) ->
                   Buffer_cache.remove c ~file:f ~page:p;
                   drop (f, p);
                   true
               | Drop_file f ->
                   Buffer_cache.drop_file c f;
                   model := List.filter (fun (f', _) -> f' <> f) !model;
                   true
               | Clear ->
                   Buffer_cache.clear c;
                   model := [];
                   true
             in
             answer_ok
             && Buffer_cache.size c = List.length !model
             && List.for_all resident !model)
           ops))

(* ------------------------------------------------------------------ *)
(* Allocation: the page cache and [Env.read_page] are host plumbing on
   every simulated page access, so in steady state they allocate
   nothing. *)

(* Minor-heap words [f ()] allocates, net of the measurement itself. *)
let words_of f =
  let measure g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  measure f -. measure ignore

let check_no_alloc name f =
  f ();
  Alcotest.(check (float 0.0)) (name ^ " allocates nothing") 0.0 (words_of f)

let test_cache_ops_allocate_nothing () =
  let c = Buffer_cache.create ~capacity_pages:64 in
  let each lo hi op () =
    for p = lo to hi do
      op ~file:(p mod 5) ~page:p
    done
  in
  check_no_alloc "insert + evict" (each 0 499 (Buffer_cache.insert c));
  check_no_alloc "touch hit"
    (each 450 499 (fun ~file ~page -> ignore (Buffer_cache.touch c ~file ~page)));
  check_no_alloc "touch miss"
    (each 0 99 (fun ~file ~page -> ignore (Buffer_cache.touch c ~file ~page)));
  (* Each measured thunk refills what it dropped; closures are built
     outside the measurement. *)
  let remove = each 440 499 (Buffer_cache.remove c)
  and refill = each 440 499 (Buffer_cache.insert c) in
  check_no_alloc "remove" (fun () ->
      remove ();
      refill ());
  check_no_alloc "drop_file" (fun () ->
      Buffer_cache.drop_file c 3;
      refill ())

let test_read_page_allocates_nothing () =
  let env = mk_env () in
  let f = Sfile.create env in
  Sfile.append_pages env f 64;
  let file = Sfile.id f in
  check_no_alloc "read_page hit" (fun () ->
      for _ = 1 to 100 do
        Env.read_page env ~file ~page:63
      done);
  let misses = (Env.stats env).Io_stats.cache_misses in
  (* 64 pages cycled through a 4-page cache: every read misses. *)
  check_no_alloc "read_page miss" (fun () ->
      for p = 0 to 63 do
        Env.read_page env ~file ~page:p
      done);
  Alcotest.(check int) "all misses" (misses + 128)
    (Env.stats env).Io_stats.cache_misses

(* ------------------------------------------------------------------ *)
(* Env cost accounting *)

let test_sequential_cheaper_than_random () =
  let env1 = mk_env ~cache_bytes:0 () in
  let f1 = Sfile.create env1 in
  Sfile.append_pages env1 f1 100;
  let t0 = Env.now_us env1 in
  Sfile.read_range env1 f1 ~first:0 ~count:50;
  let seq_cost = Env.now_us env1 -. t0 in
  let env2 = mk_env ~cache_bytes:0 () in
  let f2 = Sfile.create env2 in
  Sfile.append_pages env2 f2 100;
  let t0 = Env.now_us env2 in
  for i = 0 to 24 do
    Sfile.read_page env2 f2 (i * 4)
  done;
  let rand_cost = Env.now_us env2 -. t0 in
  (* 50 sequential pages vs 25 random pages: random still costs more. *)
  Alcotest.(check bool)
    (Printf.sprintf "random dearer (%.0f > %.0f)" rand_cost seq_cost)
    true (rand_cost > seq_cost)

let test_cache_hit_is_cheap () =
  let env = mk_env () in
  let f = Sfile.create env in
  Sfile.append_pages env f 1;
  (* Written pages are resident; the read is a hit. *)
  let t0 = Env.now_us env in
  Sfile.read_page env f 0;
  let hit_cost = Env.now_us env -. t0 in
  Alcotest.(check bool) "hit cheap" true (hit_cost < 1.0);
  Alcotest.(check int) "hit counted" 1 (Env.stats env).Io_stats.cache_hits

let test_read_miss_counted () =
  let env = mk_env ~cache_bytes:0 () in
  let f = Sfile.create env in
  Sfile.append_pages env f 10;
  Sfile.read_page env f 3;
  let st = Env.stats env in
  Alcotest.(check int) "one read" 1 st.Io_stats.pages_read;
  Alcotest.(check int) "random" 1 st.Io_stats.rand_reads;
  Sfile.read_page env f 4;
  Alcotest.(check int) "sequential follow-on" 1 (Env.stats env).Io_stats.seq_reads

let test_interleaved_files_are_random () =
  let env = mk_env ~cache_bytes:0 () in
  let a = Sfile.create env and b = Sfile.create env in
  Sfile.append_pages env a 10;
  Sfile.append_pages env b 10;
  Env.reset_measurement env;
  (* Alternate between files: every access repositions. *)
  for i = 0 to 4 do
    Sfile.read_page env a i;
    Sfile.read_page env b i
  done;
  let st = Env.stats env in
  Alcotest.(check int) "all random" 10 st.Io_stats.rand_reads

let test_write_cost_and_caching () =
  let env = mk_env ~cache_bytes:(100 * Device.hdd.Device.page_size) () in
  let f = Sfile.create env in
  let t0 = Env.now_us env in
  Sfile.append_pages env f 10;
  let cost = Env.now_us env -. t0 in
  let expect =
    Device.hdd.Device.seek_us +. (10.0 *. Device.hdd.Device.write_us_per_page)
  in
  Alcotest.(check (float 0.01)) "write cost" expect cost;
  Alcotest.(check int) "pages" 10 (Sfile.npages f);
  Env.reset_measurement env;
  Sfile.read_range env f ~first:0 ~count:10;
  Alcotest.(check int) "all hits" 10 (Env.stats env).Io_stats.cache_hits

let test_charges () =
  let env = mk_env () in
  let t0 = Env.now_us env in
  Env.charge_comparisons env 1000;
  Alcotest.(check bool) "cmp advances" true (Env.now_us env > t0);
  Alcotest.(check int) "counted" 1000 (Env.stats env).Io_stats.comparisons;
  let t1 = Env.now_us env in
  Env.charge_cache_lines env 10;
  Env.charge_hashes env 10;
  Env.charge_entry_visits env 10;
  Alcotest.(check bool) "cpu advances" true (Env.now_us env > t1)

let test_sfile_delete () =
  let env = mk_env () in
  let f = Sfile.create env in
  Sfile.append_pages env f 5;
  Sfile.delete env f;
  Alcotest.check_raises "read after delete"
    (Invalid_argument "Sfile.read_page: file 0 deleted") (fun () ->
      Sfile.read_page env f 0)

let test_sfile_bounds () =
  let env = mk_env () in
  let f = Sfile.create env in
  Sfile.append_pages env f 2;
  Alcotest.check_raises "oob"
    (Invalid_argument "Sfile.read_page: page 2 outside file of 2 pages")
    (fun () -> Sfile.read_page env f 2)

let test_ssd_cheaper_random () =
  (* The SSD profile's random reads are orders of magnitude cheaper. *)
  let run device =
    let env = Env.create ~cache_bytes:0 device in
    let f = Sfile.create env in
    Sfile.append_pages env f 100;
    let t0 = Env.now_us env in
    for i = 0 to 19 do
      Sfile.read_page env f (i * 5)
    done;
    Env.now_us env -. t0
  in
  let hdd = run Device.hdd and ssd = run Device.ssd in
  Alcotest.(check bool)
    (Printf.sprintf "ssd %.0fus << hdd %.0fus" ssd hdd)
    true
    (ssd *. 10.0 < hdd)

let test_scan_all () =
  let env = mk_env ~cache_bytes:0 () in
  let f = Sfile.create env in
  Sfile.append_pages env f 20;
  Env.reset_measurement env;
  Sfile.scan_all env f;
  let st = Env.stats env in
  Alcotest.(check int) "reads" 20 st.Io_stats.pages_read;
  Alcotest.(check int) "one seek" 1 st.Io_stats.rand_reads;
  Alcotest.(check int) "rest sequential" 19 st.Io_stats.seq_reads

let () =
  Alcotest.run "lsm_sim"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "drop file" `Quick test_cache_drop_file;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
          Alcotest.test_case "lru stress" `Quick test_cache_lru_chain_stress;
          Alcotest.test_case "packed key bounds" `Quick
            test_cache_packed_key_bounds;
          prop_cache_matches_model;
          prop_cache_differential;
          Alcotest.test_case "ops allocate nothing" `Quick
            test_cache_ops_allocate_nothing;
        ] );
      ( "env",
        [
          Alcotest.test_case "seq cheaper than random" `Quick
            test_sequential_cheaper_than_random;
          Alcotest.test_case "cache hit cheap" `Quick test_cache_hit_is_cheap;
          Alcotest.test_case "miss counting" `Quick test_read_miss_counted;
          Alcotest.test_case "interleaving randomizes" `Quick
            test_interleaved_files_are_random;
          Alcotest.test_case "write cost + caching" `Quick
            test_write_cost_and_caching;
          Alcotest.test_case "cpu charges" `Quick test_charges;
          Alcotest.test_case "ssd cheap random" `Quick test_ssd_cheaper_random;
          Alcotest.test_case "read_page allocates nothing" `Quick
            test_read_page_allocates_nothing;
        ] );
      ( "sfile",
        [
          Alcotest.test_case "delete" `Quick test_sfile_delete;
          Alcotest.test_case "bounds" `Quick test_sfile_bounds;
          Alcotest.test_case "scan_all" `Quick test_scan_all;
        ] );
    ]
