(* One benchmark run: rounds of a workload until the time is up, then the
   metrics.

   A run derives the workload's [systems] independent inputs (sub-seeds)
   from its seed.  Untraced, it runs one untraced round per sub-seed that
   also computes the modelled result (the first [searched] of them also
   the capacity and SLO rate search, the costly part); each modelled
   metric is the median over the sub-seeds that computed it, since one
   system's tail latency depends on which merges its flushes happen to
   cascade into.  One observed round
   (simulated-clock tracer on) follows, then at least [host_rounds]
   untraced rounds cycle through the sub-seeds until [seconds] have
   passed, skipping the answer checks after their timed phase (the first
   rounds made them).  Host metrics are medians over every untraced round
   but the process's first, spread over the whole run, with host times
   scaled to a reference machine speed (see [reference_loop]).

   Traced, every round uses the first sub-seed, alternating untraced (the
   overhead baseline) and traced rounds with the benchmark's host spans
   on; per-layer metrics are medians over the traced ones.

   Either way each later round's modelled metrics must equal those of the
   same sub-seed's first round exactly: observing the engine must not
   perturb its cost model.  A mismatch is a failed attempt. *)

module Obs_hub = Lsm_harness.Obs_hub

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in catalog order *)
  samples : (string * int) list;  (** latency class -> samples per sub-seed *)
  coverage : (float * float) option;  (** traced: covered, total sim us *)
  rounds : int;
}

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let host_rate (r : Work.round) = Float.of_int r.Work.ops /. r.Work.timed_s

(* Host speed.  The machine a run shares with others switches between
   slower and faster spells (one process measured identical rounds at
   33k and at 55k requests/s), so each round times a fixed reference
   loop before and after it, and its host times are scaled to a machine
   that runs the loop in [reference_nominal_s].  The loop uses only the
   standard library, never engine code, so no change to the engine moves
   it.  [reference_nominal_s] is the loop's usual time on the 2-vCPU VM
   the bounds were set on. *)
let reference_nominal_s = 0.12

let reference_loop () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 16 in
  for i = 0 to 200_000 do
    Hashtbl.replace h (i * 7919 mod 50_000) (string_of_int i)
  done;
  let l = List.init 100_000 (fun i -> (i * 31) mod 9973) in
  ignore (Sys.opaque_identity (List.sort Int.compare l, Hashtbl.length h));
  Unix.gettimeofday () -. t0

let run_round f ~seed ~slo ~observe ~spans ~full ~check =
  Gc.compact ();
  let ref0 = reference_loop () in
  Obs_hub.enabled := observe;
  Obs_hub.reset ();
  Spans.enable spans;
  let r = f ~seed ~slo ~full ~check in
  Spans.on := false;
  Obs_hub.enabled := false;
  Obs_hub.reset ();
  let ref_s = (ref0 +. reference_loop ()) /. 2.0 in
  Printf.printf
    "round: sub-seed %d%s, set-up %.4f s, %d ops in %.4f s (%.1f ops/s), \
     reference loop %.4f s\n%!"
    seed
    (if spans then " traced" else if observe then " observed" else "")
    r.Work.setup_s r.Work.ops r.Work.timed_s (host_rate r) ref_s;
  let scale = reference_nominal_s /. ref_s in
  { r with Work.setup_s = r.Work.setup_s *. scale; timed_s = r.Work.timed_s *. scale }

(* [systems] overrides the workload's number of sub-seeds. *)
let run ?systems ?(host_rounds = 5) ~workload ~seed ~seconds ~trace ~slo () =
  let w = List.assoc workload Work.by_name in
  let f = w.Work.round in
  Obs_hub.enable ~capacity:256 ();
  let start = Unix.gettimeofday () in
  let sub j = (seed * 1009) + j in
  let subseeds =
    if trace then 1 else Option.value systems ~default:w.Work.systems
  in
  let firsts =
    Array.init subseeds (fun j ->
        run_round f ~seed:(sub j) ~slo ~observe:false ~spans:false
          ~full:((not trace) && j < w.Work.searched) ~check:true)
  in
  let mismatches = ref 0 and compared = ref 0 in
  let later = ref [] in
  let k = ref 0 in
  (* Later round [k]: untraced, the first is observed and the rest give
     the host metrics; traced, odd rounds are traced and even ones are
     the untraced baseline, interleaved so both see the same machine. *)
  let is_observed k = if trace then k mod 2 = 1 else k = 0 in
  let min_rounds = if trace then 2 else 1 + host_rounds in
  while !k < min_rounds || Unix.gettimeofday () -. start < seconds do
    let j = !k mod subseeds in
    let obs = is_observed !k in
    let r =
      run_round f ~seed:(sub j) ~slo ~observe:obs ~spans:(obs && trace) ~full:false
        ~check:obs
    in
    List.iter
      (fun (name, v) ->
        match List.assoc_opt name firsts.(j).Work.model with
        | Some first when first <> v ->
            incr compared;
            incr mismatches;
            Printf.printf "MISMATCH sub-seed %d: %s = %.17g, first round had %.17g\n"
              (sub j) name v first
        | Some _ -> incr compared
        | None -> ())
      r.Work.model;
    later := (obs, r) :: !later;
    incr k
  done;
  let later = List.rev !later in
  let pick o = List.filter_map (fun (x, r) -> if x = o then Some r else None) later in
  (* Host figures skip the process's first round, which runs while its
     heap grows. *)
  let plain =
    (if trace then [] else List.tl (Array.to_list firsts)) @ pick false
  and observed = pick true in
  let rounds = Array.to_list firsts @ List.map snd later in
  let attempted =
    List.fold_left (fun acc r -> acc + r.Work.attempted) !compared rounds
  in
  let failed = List.fold_left (fun acc r -> acc + r.Work.failed) !mismatches rounds in
  let med g rs = median (List.map g rs) in
  let metrics, coverage =
    if not trace then
      (* The median over the sub-seeds whose first round computed the
         metric; serve's write_amp needs the observed round's
         environments. *)
      let model name =
        let of_rounds rs = List.filter_map (fun r -> List.assoc_opt name r.Work.model) rs in
        match of_rounds (Array.to_list firsts) with
        | [] -> median (of_rounds observed)
        | vs -> median vs
      in
      let names =
        List.sort_uniq String.compare
          (List.map fst (List.concat_map (fun r -> r.Work.model) (firsts.(0) :: observed)))
      in
      ( [
          ("setup_s", med (fun r -> r.Work.setup_s) plain);
          ("host_ops_per_s", med host_rate plain);
          ( "alloc_words_per_op",
            med (fun r -> r.Work.alloc_words /. Float.of_int r.Work.ops) plain );
          ("heap_peak_mb", firsts.(0).Work.heap_mb);
          ( "success_rate",
            1.0 -. (Float.of_int failed /. Float.of_int (max 1 attempted)) );
        ]
        @ List.map (fun n -> (n, model n)) names,
        None )
    else begin
      let layer name = med (fun r -> List.assoc name r.Work.layers) observed in
      let names = List.map fst (List.hd observed).Work.layers in
      let overhead = med host_rate observed /. med host_rate plain in
      ( List.map (fun n -> (n, layer n)) names
        @ [ ("workload.gen_s", med (fun r -> r.Work.gen_s) observed);
            ("obs.trace_overhead", overhead) ],
        Some (layer "sim.clock_us" -. layer "sim.unattributed_us", layer "sim.clock_us")
      )
    end
  in
  let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
  (* A layer that takes no part in a workload reports 0; a missing
     end-to-end metric is an error. *)
  let missing = if trace then 0.0 else Float.nan in
  let metrics =
    List.map
      (fun (name, _, _) ->
        (name, Option.value ~default:missing (List.assoc_opt name metrics)))
      catalog
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  List.iter
    (fun (n, v) -> if not (Float.is_finite v) then Printf.printf "NOT MEASURED: %s\n" n)
    metrics;
  {
    correct = failed = 0 && finite;
    attempted;
    failed;
    metrics;
    samples = firsts.(0).Work.samples;
    coverage;
    rounds = List.length rounds;
  }
