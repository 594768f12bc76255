(** Scheduled fault plans and front-door resilience policy for the
    serving stack.

    [lib/faultsim]'s plans are *announcement-counted*: they fire at the
    N-th occurrence of a named engine fault point, which is the right
    shape for exhaustively enumerating crash sites but the wrong one for
    chaos drills against live traffic.  A chaos plan instead fires on
    the open-loop run's own coordinates — a simulated instant or an
    arrival index — against a named partition, and describes a *regime*
    (an outage, an intermittent window, a slow device) rather than a
    single point.  The serving driver interprets the plan; this module
    owns the vocabulary: the spec grammar, the per-partition circuit
    breaker, and the front-door policy knobs (deadline, retry budget,
    hedging, admission control). *)

(* ------------------------------------------------------------------ *)
(* Fault plans *)

type trigger =
  | At_us of float  (** fire at the first arrival at or after this instant *)
  | At_arrival of int  (** fire at the N-th arrival (1-based) *)

type action =
  | Crash
      (** crash the partition and route it through durable-frontier
          recovery while the rest of the fleet keeps serving *)
  | Io_window of { dur_us : float; fails : int }
      (** for [dur_us], every [fails] consecutive announcements of an
          [io.*] point on the partition raise a transient I/O error
          (then three times as many pass).  [fails] at or under the
          retry budget is absorbed as latency; above it, requests
          error. *)
  | Corrupt
      (** silently corrupt the next page written on the partition;
          detection, quarantine, and healing follow the engine's
          checksum path *)
  | Slow of { dur_us : float; factor : float }
      (** multiply the partition's device I/O time by [factor] for
          [dur_us] — a degraded disk, no errors *)

type fault = { part : int; trigger : trigger; action : action }

(* ------------------------------------------------------------------ *)
(* Spec grammar *)

let usage =
  "chaos spec: one or more faults separated by ';' or ',':\n\
  \  crash@pP@tT          crash partition P at instant T, recover durably\n\
  \  crash@pP@nN          same, at the N-th arrival\n\
  \  io@pP@tT+D[!K]       intermittent I/O errors on P in [T, T+D):\n\
  \                       K consecutive announcements fail (default 6;\n\
  \                       <= 3 is absorbed by engine retries)\n\
  \  corrupt@pP@tT        silently corrupt P's next page write after T\n\
  \  slow@pP@tT+D[*F]     multiply P's device I/O time by F (default 8)\n\
  \                       in [T, T+D)\n\
  \  times T, D take a unit: us, ms, or s (e.g. t150ms, +40ms)"

let parse_time s =
  let num_of s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> Ok f
    | _ -> Error (Printf.sprintf "bad time %S" s)
  in
  let strip suffix =
    String.sub s 0 (String.length s - String.length suffix)
  in
  if Filename.check_suffix s "us" then num_of (strip "us")
  else if Filename.check_suffix s "ms" then
    Result.map (fun f -> f *. 1e3) (num_of (strip "ms"))
  else if Filename.check_suffix s "s" then
    Result.map (fun f -> f *. 1e6) (num_of (strip "s"))
  else Error (Printf.sprintf "time %S needs a unit (us|ms|s)" s)

let parse_trigger s =
  let n = String.length s in
  if n < 2 then Error (Printf.sprintf "bad trigger %S" s)
  else
    match s.[0] with
    | 't' ->
        Result.map (fun us -> At_us us) (parse_time (String.sub s 1 (n - 1)))
    | 'n' -> (
        match int_of_string_opt (String.sub s 1 (n - 1)) with
        | Some k when k >= 1 -> Ok (At_arrival k)
        | _ -> Error (Printf.sprintf "bad arrival index in %S" s))
    | _ -> Error (Printf.sprintf "trigger %S must start with 't' or 'n'" s)

let parse_part s =
  let n = String.length s in
  if n >= 2 && s.[0] = 'p' then
    match int_of_string_opt (String.sub s 1 (n - 1)) with
    | Some p when p >= 0 -> Ok p
    | _ -> Error (Printf.sprintf "bad partition %S" s)
  else Error (Printf.sprintf "partition %S must look like p0, p1, ..." s)

(* Split [s] once on [c], from the left. *)
let split1 c s =
  match String.index_opt s c with
  | None -> None
  | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let ( let* ) = Result.bind

(* TRIG+DUR with an optional [mark]-separated tail: "t50ms+40ms!6". *)
let parse_window ~mark s =
  match split1 '+' s with
  | None -> Error (Printf.sprintf "%S needs a window: TRIG+DUR" s)
  | Some (trig, rest) ->
      let* trigger = parse_trigger trig in
      let dur, tail =
        match split1 mark rest with
        | None -> (rest, None)
        | Some (d, t) -> (d, Some t)
      in
      let* dur_us = parse_time dur in
      if dur_us <= 0.0 then Error (Printf.sprintf "window %S must be > 0" dur)
      else Ok (trigger, dur_us, tail)

let parse_one s =
  match String.split_on_char '@' s with
  | [ "crash"; part; trig ] ->
      let* part = parse_part part in
      let* trigger = parse_trigger trig in
      Ok { part; trigger; action = Crash }
  | [ "corrupt"; part; trig ] ->
      let* part = parse_part part in
      let* trigger = parse_trigger trig in
      Ok { part; trigger; action = Corrupt }
  | [ "io"; part; window ] ->
      let* part = parse_part part in
      let* trigger, dur_us, tail = parse_window ~mark:'!' window in
      let* fails =
        match tail with
        | None -> Ok 6
        | Some k -> (
            match int_of_string_opt k with
            | Some k when k >= 1 -> Ok k
            | _ -> Error (Printf.sprintf "bad fail count %S" k))
      in
      Ok { part; trigger; action = Io_window { dur_us; fails } }
  | [ "slow"; part; window ] ->
      let* part = parse_part part in
      let* trigger, dur_us, tail = parse_window ~mark:'*' window in
      let* factor =
        match tail with
        | None -> Ok 8.0
        | Some f -> (
            match float_of_string_opt f with
            | Some f when f > 1.0 -> Ok f
            | _ -> Error (Printf.sprintf "slow factor %S must be > 1" f))
      in
      Ok { part; trigger; action = Slow { dur_us; factor } }
  | kind :: _ ->
      Error
        (Printf.sprintf "unknown fault %S (crash|io|corrupt|slow)" kind)
  | [] -> Error "empty fault"

(** [parse spec] reads a ';'- or ','-separated fault list.  Errors carry
    the offending element; append {!usage} for the CLI. *)
let parse spec =
  let elems =
    String.split_on_char ';' spec
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if elems = [] then Error "empty chaos spec"
  else
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* f = parse_one e in
        Ok (f :: acc))
      (Ok []) elems
    |> Result.map List.rev

let describe_trigger = function
  | At_us t -> Printf.sprintf "t=%.0fus" t
  | At_arrival n -> Printf.sprintf "arrival %d" n

let describe f =
  match f.action with
  | Crash -> Printf.sprintf "crash p%d @ %s" f.part (describe_trigger f.trigger)
  | Io_window { dur_us; fails } ->
      Printf.sprintf "io p%d @ %s +%.0fus fails=%d" f.part
        (describe_trigger f.trigger) dur_us fails
  | Corrupt ->
      Printf.sprintf "corrupt p%d @ %s" f.part (describe_trigger f.trigger)
  | Slow { dur_us; factor } ->
      Printf.sprintf "slow p%d @ %s +%.0fus x%.1f" f.part
        (describe_trigger f.trigger) dur_us factor

(* ------------------------------------------------------------------ *)
(* Front-door policy *)

type policy = {
  deadline_us : float;
      (** per-request deadline for reads; answers later than this are
          errors, and a request whose queueing alone exceeds it is
          failed without executing.  0 disables. *)
  retries : int;  (** bounded re-attempts after a partition error *)
  hedge_us : float;
      (** a read whose first attempt ran longer than this gets one
          hedged re-attempt against the same partition; the reply
          latency is the earlier of the two, the partition pays for
          both.  0 = auto (half the deadline); negative disables. *)
  shed_backlog_us : float;
      (** admission control: shed a request when every partition it
          needs has more than this much queued work — counted, never
          silently dropped.  0 disables. *)
}

let default_policy =
  { deadline_us = 0.0; retries = 1; hedge_us = 0.0; shed_backlog_us = 0.0 }

(** [hedge_trigger_us p] resolves the hedging threshold: explicit,
    derived from the deadline, or disabled ([infinity]). *)
let hedge_trigger_us p =
  if p.hedge_us > 0.0 then p.hedge_us
  else if p.hedge_us < 0.0 then infinity
  else if p.deadline_us > 0.0 then p.deadline_us /. 2.0
  else infinity

(* ------------------------------------------------------------------ *)
(* Per-partition circuit breaker *)

module Breaker = struct
  (** Error-budget circuit breaker, per partition.  Closed counts
      outcomes over a rolling window and opens when the error fraction
      exceeds the budget; Open rejects without touching the partition
      until a cooldown elapses; Half-open lets probe requests through —
      one success closes, one failure re-opens.  All timestamps are the
      driver's arrival clock, so breaker behaviour is deterministic for
      a seed. *)

  type state = Closed | Open | Half_open

  let state_name = function
    | Closed -> "closed"
    | Open -> "open"
    | Half_open -> "half_open"

  type t = {
    window : int;  (** outcomes per evaluation window *)
    threshold : float;  (** error fraction that trips the breaker *)
    min_events : int;  (** outcomes required before tripping *)
    cooldown_us : float;  (** Open -> Half-open delay *)
    mutable st : state;
    mutable errors : int;
    mutable total : int;
    mutable opened_at : float;
    mutable opens : int;
    mutable transitions : (float * state) list;  (** newest first *)
  }

  let create ?(window = 32) ?(threshold = 0.5) ?(min_events = 8)
      ?(cooldown_us = 20_000.0) () =
    if window < 1 || min_events < 1 then
      invalid_arg "Breaker.create: window and min_events >= 1";
    if not (threshold > 0.0 && threshold <= 1.0) then
      invalid_arg "Breaker.create: threshold in (0, 1]";
    {
      window;
      threshold;
      min_events;
      cooldown_us;
      st = Closed;
      errors = 0;
      total = 0;
      opened_at = 0.0;
      opens = 0;
      transitions = [];
    }

  let state t = t.st
  let opens t = t.opens
  let transitions t = List.rev t.transitions

  (** [transitions_since t k]: the transitions after the first [k],
      oldest first ([[]] without allocating when there are none). *)
  let transitions_since t k =
    let rec newest n = function
      | x :: l when n > 0 -> x :: newest (n - 1) l
      | _ -> []
    in
    List.rev (newest (List.length t.transitions - k) t.transitions)

  let goto t ~now st =
    t.st <- st;
    if st = Open then begin
      t.opened_at <- now;
      t.opens <- t.opens + 1
    end;
    t.transitions <- (now, st) :: t.transitions

  (** [admit t ~now] gates a request: [`Allow] (closed), [`Probe]
      (half-open — execute it, its outcome decides the state), or
      [`Reject] (open, cooling down). *)
  let admit t ~now =
    match t.st with
    | Closed -> `Allow
    | Half_open -> `Probe
    | Open ->
        if now >= t.opened_at +. t.cooldown_us then begin
          goto t ~now Half_open;
          `Probe
        end
        else `Reject

  (** [record t ~now ~ok] feeds an executed request's outcome back.
      Rejected requests are not recorded — they never ran. *)
  let record t ~now ~ok =
    match t.st with
    | Open -> ()
    | Half_open -> if ok then goto t ~now Closed else goto t ~now Open
    | Closed ->
        t.total <- t.total + 1;
        if not ok then t.errors <- t.errors + 1;
        if
          t.total >= t.min_events
          && Float.of_int t.errors
             >= t.threshold *. Float.of_int t.total
        then begin
          t.errors <- 0;
          t.total <- 0;
          goto t ~now Open
        end
        else if t.total >= t.window then begin
          (* Window full without tripping: forget it. *)
          t.errors <- 0;
          t.total <- 0
        end
end
