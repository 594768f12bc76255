(* Host-time spans recorded by the benchmark around each call it makes into
   a layer of the engine.  Nothing here reaches into the engine: a span is
   opened before the call and closed after it, on the benchmark's side.

   Disabled (the default, and always in timed end-to-end runs), [with_]
   costs one branch.  Enabled, every span folds into exact per-name
   aggregates: count, total, self (total minus direct children) and words
   allocated. *)

type agg = {
  mutable count : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable words : float;
}

type frame = {
  f_name : string;
  f_start : float;
  f_words : float;
  mutable f_child_s : float;
}

let on = ref false
let stack : frame list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

let now () = Unix.gettimeofday ()

let enable b =
  on := b;
  if b then begin
    stack := [];
    Hashtbl.reset aggs
  end

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_s = 0.0; self_s = 0.0; words = 0.0 } in
      Hashtbl.add aggs name a;
      a

let close fr =
  let dur = now () -. fr.f_start in
  let a = agg fr.f_name in
  a.count <- a.count + 1;
  a.total_s <- a.total_s +. dur;
  a.self_s <- a.self_s +. (dur -. fr.f_child_s);
  a.words <- a.words +. (Gc.minor_words () -. fr.f_words);
  stack := List.tl !stack;
  match !stack with p :: _ -> p.f_child_s <- p.f_child_s +. dur | [] -> ()

let with_ name f =
  if not !on then f ()
  else begin
    let fr =
      { f_name = name; f_start = now (); f_words = Gc.minor_words ();
        f_child_s = 0.0 }
    in
    stack := fr :: !stack;
    match f () with
    | v ->
        close fr;
        v
    | exception e ->
        close fr;
        raise e
  end

(** Aggregate of [name] (zeros when it never ran). *)
let find name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None -> { count = 0; total_s = 0.0; self_s = 0.0; words = 0.0 }
