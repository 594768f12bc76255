(* The answer checker: a shadow map of the latest acknowledged record per
   primary key, and brute-force reference answers computed from it.  Every
   mismatch counts as a failed attempt. *)

module Tweet = Lsm_workload.Tweet

type t = {
  latest : (int, Tweet.t) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let create () = { latest = Hashtbl.create 4096; attempted = 0; failed = 0 }
let ack t (r : Tweet.t) = Hashtbl.replace t.latest r.Tweet.id r
let find t pk = Hashtbl.find_opt t.latest pk

let verdict t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(** A point reply must be exactly the latest acknowledged record. *)
let check_point t pk (got : Tweet.t option) = verdict t (got = find t pk)

let by_pk (a : Tweet.t) (b : Tweet.t) = Int.compare a.Tweet.id b.Tweet.id

(** A secondary reply must hold exactly the live records whose user_id
    lies in [lo, hi]. *)
let check_secondary t ~lo ~hi (got : Tweet.t list) =
  let expect =
    Hashtbl.fold
      (fun _ (r : Tweet.t) acc ->
        if r.Tweet.user_id >= lo && r.Tweet.user_id <= hi then r :: acc
        else acc)
      t.latest []
  in
  verdict t (List.sort by_pk got = List.sort by_pk expect)

(** A time-range scan must emit exactly the live records created in
    [tlo, thi]. *)
let check_scan t ~tlo ~thi (got : Tweet.t list) =
  let expect =
    Hashtbl.fold
      (fun _ (r : Tweet.t) acc ->
        if r.Tweet.created_at >= tlo && r.Tweet.created_at <= thi then r :: acc
        else acc)
      t.latest []
  in
  verdict t (List.sort by_pk got = List.sort by_pk expect)

(** Bytes of the live records (latest version per key). *)
let live_bytes t =
  Hashtbl.fold (fun _ r acc -> acc + Tweet.byte_size r) t.latest 0
