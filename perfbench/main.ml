(* perfbench: the repository benchmark.

     main.exe --workload ingest|query|serve --seed N --seconds S --trace 0|1
              --slo-p99-us ingest=US,query=US,serve=US
              --rate-ladder ingest=RxS,query=RxS,serve=RxS

   Prints one line per metric (name, value, unit, direction, sample count)
   and, as the last line, the JSON result object.  Exit 2 on bad
   arguments. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload ingest|query|serve --seed N --seconds S \
     --trace 0|1 --slo-p99-us ingest=US,query=US,serve=US --rate-ladder \
     ingest=RxS,query=RxS,serve=RxS";
  exit 2

let per_workload s =
  List.map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] -> (k, v)
      | _ -> usage ())
    (String.split_on_char ',' s)

(* "RxS": R rungs, then S bisection steps. *)
let ladder v =
  match String.split_on_char 'x' v with
  | [ r; s ] -> (
      match (int_of_string_opt r, int_of_string_opt s) with
      | Some rungs, Some steps when rungs >= 1 && steps >= 0 ->
          Some { Lat.rungs; steps }
      | _ -> None)
  | _ -> None

let known =
  [ "--workload"; "--seed"; "--seconds"; "--trace"; "--slo-p99-us"; "--rate-ladder" ]

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when List.mem k known ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let num conv k = match conv (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload Work.by_name) then usage ();
  let seed = num int_of_string_opt "seed" in
  let seconds = num float_of_string_opt "seconds" in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let pick k conv =
    match List.assoc_opt workload (per_workload (get k)) with
    | Some v -> ( match conv v with Some x -> x | None -> usage ())
    | None -> usage ()
  in
  let slo =
    { Work.limit_us = pick "slo-p99-us" float_of_string_opt;
      ladder = pick "rate-ladder" ladder }
  in
  let r = Bench.run ~workload ~seed ~seconds ~trace ~slo () in
  let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
  Printf.printf "perfbench %s seed %d: %d rounds, %s\n" workload seed r.Bench.rounds
    (if trace then "traced (per-layer)" else "untraced (end-to-end)");
  List.iter
    (fun (name, unit, better) ->
      let v = List.assoc name r.Bench.metrics in
      let n =
        match Catalog.sample_class name with
        | Some c when not trace ->
            Printf.sprintf "  n=%d" (Option.value ~default:0 (List.assoc_opt c r.Bench.samples))
        | _ -> ""
      in
      Printf.printf "%-34s %18.6f %-12s %s is better%s\n" name v unit
        (Catalog.better_name better) n)
    catalog;
  (match r.Bench.coverage with
  | Some (covered, total) ->
      Printf.printf
        "coverage: top-level simulated spans cover %.0f of %.0f us (%.2f%%); \
         sim.unattributed_us = %.0f\n"
        covered total
        (if total > 0.0 then 100.0 *. covered /. total else 100.0)
        (total -. covered)
  | None -> ());
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun (name, unit, _) ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name
          (json_num (List.assoc name r.Bench.metrics))
          unit)
      catalog
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    r.Bench.correct r.Bench.attempted r.Bench.failed (String.concat ", " fields);
  print_newline ()
