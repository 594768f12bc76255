(** A page-granular LRU buffer cache.

    Mirrors the disk buffer cache of the paper's setup (2GB on the hard
    disk node, 4GB on the SSD node, 512MB in the small-cache experiment of
    Fig. 18).  Keys are (file id, page number); the cache stores no data —
    files in this simulation are phantom — only residency, which is what
    the cost model needs.

    Implementation: int arrays only, so no operation allocates.  Pages are
    nodes [0 .. capacity] (one spare, so a page is admitted before its
    victim leaves) and node [capacity + 1] is the LRU sentinel; [prev] /
    [next] link them, and free nodes chain through [next].  An
    open-addressing table over the packed key maps slots to nodes, with
    linear probing and backward-shift deletion. *)

type t = {
  capacity : int;  (** max resident pages; 0 disables caching *)
  mask : int;  (** table length - 1; the load factor stays <= 1/2 *)
  table : int array;  (** slot -> node, -1 = empty *)
  key : int array;  (** node -> packed key *)
  prev : int array;
  next : int array;  (** [next.(sentinel)] is the MRU page *)
  mutable free : int;
  mutable size : int;
  mutable miss_key : int;
  mutable miss_slot : int;
      (** where the last probe for [miss_key] ended without finding it:
          the page lands there if admitted, so admission needs no second
          probe; -1 once a deletion may have shifted the table *)
}

let file_limit = 1 lsl 31
let page_limit = 1 lsl 32

(* [file] in the high 31 bits, [page] in the low 32: distinct pairs get
   distinct keys within OCaml's 63-bit ints.  Larger ids are rejected
   rather than aliased. *)
let pack ~file ~page =
  if file < 0 || file >= file_limit || page < 0 || page >= page_limit then
    invalid_arg "Buffer_cache: file id or page out of range";
  (file lsl 32) lor page

let sentinel t = t.capacity + 1

(** [clear t] empties the cache (used to run cold-cache experiments). *)
let clear t =
  Array.fill t.table 0 (Array.length t.table) (-1);
  let s = sentinel t in
  for n = 0 to s - 1 do
    t.next.(n) <- (if n + 1 < s then n + 1 else -1)
  done;
  t.prev.(s) <- s;
  t.next.(s) <- s;
  t.free <- 0;
  t.size <- 0;
  t.miss_slot <- -1

let create ~capacity_pages =
  let capacity = max capacity_pages 0 in
  let slots = ref 2 in
  while !slots < 2 * (capacity + 1) do
    slots := 2 * !slots
  done;
  let nodes () = Array.make (capacity + 2) (-1) in
  let t =
    { capacity; mask = !slots - 1; table = Array.make !slots (-1);
      key = nodes (); prev = nodes (); next = nodes (); free = -1; size = 0;
      miss_key = -1; miss_slot = -1 }
  in
  clear t;
  t

let size t = t.size
let capacity t = t.capacity
let home t key = Lsm_util.Keys.mix64 key land t.mask

(* The slot holding [key], or the empty slot ending its probe run. *)
let probe t key =
  let i = ref (home t key) in
  while t.table.(!i) >= 0 && t.key.(t.table.(!i)) <> key do
    i := (!i + 1) land t.mask
  done;
  if t.table.(!i) < 0 then begin
    t.miss_key <- key;
    t.miss_slot <- !i
  end;
  !i

(* Backward-shift deletion: each later entry of the run moves into the
   hole unless its home lies cyclically in (hole, entry]. *)
let delete_slot t i =
  t.miss_slot <- -1;
  let hole = ref i and j = ref ((i + 1) land t.mask) in
  while t.table.(!j) >= 0 do
    let h = home t t.key.(t.table.(!j)) in
    let stays =
      if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j
    in
    if not stays then begin
      t.table.(!hole) <- t.table.(!j);
      hole := !j
    end;
    j := (!j + 1) land t.mask
  done;
  t.table.(!hole) <- -1

let unlink t n =
  t.next.(t.prev.(n)) <- t.next.(n);
  t.prev.(t.next.(n)) <- t.prev.(n)

let push_front t n =
  let s = sentinel t in
  t.prev.(n) <- s;
  t.next.(n) <- t.next.(s);
  t.prev.(t.next.(s)) <- n;
  t.next.(s) <- n

let promote t n =
  unlink t n;
  push_front t n

let forget t n =
  unlink t n;
  delete_slot t (probe t t.key.(n));
  t.next.(n) <- t.free;
  t.free <- n;
  t.size <- t.size - 1

(** [mem t ~file ~page] reports residency without touching recency. *)
let mem t ~file ~page = t.table.(probe t (pack ~file ~page)) >= 0

(** [touch t ~file ~page] returns [true] on a hit (promoting the page to
    MRU) and [false] on a miss (the caller is expected to fetch and
    [insert]). *)
let touch t ~file ~page =
  let n = t.table.(probe t (pack ~file ~page)) in
  if n >= 0 then promote t n;
  n >= 0

(** [insert t ~file ~page] makes the page resident at MRU position,
    evicting the LRU page if at capacity.  A no-op for an already-resident
    page or a zero-capacity cache.  Right after a miss on the same page it
    reuses the slot that probe ended on. *)
let insert t ~file ~page =
  let key = pack ~file ~page in
  let i =
    if key = t.miss_key && t.miss_slot >= 0 then t.miss_slot else probe t key
  in
  if t.table.(i) >= 0 then promote t t.table.(i)
  else if t.capacity > 0 then begin
    let n = t.free in
    t.free <- t.next.(n);
    t.key.(n) <- key;
    t.table.(i) <- n;
    push_front t n;
    t.size <- t.size + 1;
    if t.size > t.capacity then forget t t.prev.(sentinel t)
  end

(** [remove t ~file ~page] discards one resident page (a checksum-failed
    copy must not be served from cache).  A no-op if not resident. *)
let remove t ~file ~page =
  let n = t.table.(probe t (pack ~file ~page)) in
  if n >= 0 then forget t n

(** [drop_file t file_id] discards all resident pages of a deleted file so
    they stop occupying capacity (components are deleted after a merge). *)
let drop_file t file_id =
  let n = ref t.next.(sentinel t) in
  while !n <> sentinel t do
    let next = t.next.(!n) in
    if t.key.(!n) lsr 32 = file_id then forget t !n;
    n := next
  done
