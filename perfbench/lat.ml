(* Latency samples (simulated microseconds) and the highest-rate-under-SLO
   search. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let to_array t = Array.sub t.a 0 t.n
let pct t p = Lsm_obs.Stats.percentile (to_array t) p

(** Rate search settings: the highest rate under a limit is searched
    between capacity/16 and capacity on a geometric ladder of [rungs]
    rates, then refined by [steps] bisection steps. *)
type ladder = { rungs : int; steps : int }

(** [highest ~lo ~hi ladder ok] is the highest rate in [lo, hi) for which
    [ok] holds, taking [ok hi] to fail (it is only ever called with a
    capacity as [hi]); [0] when [ok] fails on every rung.  The rungs
    [lo * (hi/lo)^(k/rungs)], k = rungs-1 .. 0, are tried from the top
    down; the first that holds is refined by geometric bisection towards
    the rate above it.  With one rung this is a plain bisection over
    [lo, hi], right when [ok] holds on every rate below some limit; more
    rungs find the top of the range also when [ok] fails at low rates
    too.  Fixed counts keep the answer's resolution the same on every
    run. *)
let highest ~lo ~hi ladder ok =
  let rung k = lo *. ((hi /. lo) ** (Float.of_int k /. Float.of_int ladder.rungs)) in
  let rec down k =
    if k < 0 then 0.0
    else if not (ok (rung k)) then down (k - 1)
    else begin
      let lo = ref (rung k) and hi = ref (rung (k + 1)) in
      for _ = 1 to ladder.steps do
        let mid = sqrt (!lo *. !hi) in
        if ok mid then lo := mid else hi := mid
      done;
      !lo
    end
  in
  down (ladder.rungs - 1)

(** An operation's acknowledgement: the operation [op] during which it
    happened (the operation itself, or a later one when a group commit
    acknowledges a transaction only once a later commit seals its group),
    and its offset [at_us] from that operation's start.  [op = -1]: never
    acknowledged. *)
type ack = { op : int; at_us : float }

(** [replay_ok ~service ~acks ~gaps ~rate ~limit_us] offers the
    closed-loop service times [service] (in operation order) to a single
    FIFO server as an open-loop stream: arrival [i] is at
    [sum gaps.(0..i) / rate], with [gaps] unit-mean exponential.
    Operation [i]'s response time runs from its arrival to its
    acknowledgement [acks.(i)] in that schedule, which includes the wait
    for later arrivals when a later operation acknowledges it.  The
    engine has no time-triggered work (no timer seals a commit group or
    starts a flush), so service times and acknowledging operations do
    not depend on the arrival times.  Holds when the p99 response time of
    the acknowledged operations is within [limit_us] and the backlog left
    at the last arrival is at most 5% of the run (the saturation rule of
    [Lsm_serve.Driver]). *)
let replay_ok ~service ~acks ~gaps ~rate ~limit_us =
  let n = Array.length service in
  let arrival = Array.make n 0.0 and start = Array.make n 0.0 in
  let t = ref 0.0 and free = ref 0.0 in
  for i = 0 to n - 1 do
    t := !t +. (gaps.(i) *. 1e6 /. rate);
    arrival.(i) <- !t;
    start.(i) <- Float.max !t !free;
    free := start.(i) +. service.(i)
  done;
  let resp =
    Array.to_list acks
    |> List.mapi (fun i a -> (i, a))
    |> List.filter_map (fun (i, a) ->
           if a.op < 0 then None else Some (start.(a.op) +. a.at_us -. arrival.(i)))
    |> Array.of_list
  in
  let backlog = Float.max 0.0 (!free -. !t) in
  Lsm_obs.Stats.percentile resp 99.0 <= limit_us && backlog <= 0.05 *. !t

(** Unit-mean exponential gaps drawn from [seed]. *)
let exp_gaps ~seed n =
  let rng = Lsm_util.Rng.create seed in
  Array.init n (fun _ -> -.log (1.0 -. Lsm_util.Rng.float rng))
