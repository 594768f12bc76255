(** A page-granular LRU buffer cache.

    Mirrors the disk buffer cache of the paper's setup (2GB on the hard
    disk node, 4GB on the SSD node, 512MB in the small-cache experiment of
    Fig. 18).  Keys are (file id, page number); the cache stores no data —
    files in this simulation are phantom — only residency, which is what
    the cost model needs.

    Implementation: an int-keyed hash table over a packed (file, page)
    key, and an intrusive circular doubly-linked LRU list around a
    sentinel node, so a hit allocates nothing. *)

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Lsm_util.Keys.mix64
end)

type node = { key : int; mutable prev : node; mutable next : node }

type t = {
  capacity : int;  (** max resident pages; 0 disables caching *)
  table : node Tbl.t;
  lru : node;
      (** sentinel: [lru.next] is the most recently used page, [lru.prev]
          the least recently used; it points to itself when empty *)
  mutable size : int;
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

let create ~capacity_pages =
  let rec lru = { key = -1; prev = lru; next = lru } in
  { capacity = max capacity_pages 0; table = Tbl.create 4096; lru; size = 0 }

let size t = t.size
let capacity t = t.capacity

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.prev <- t.lru;
  node.next <- t.lru.next;
  t.lru.next.prev <- node;
  t.lru.next <- node

(* A dropped node is pointed at itself: left pointing at its old
   neighbours, a dead node already in the major heap would make the minor
   collector promote every young node still chained behind it. *)
let forget t node =
  unlink node;
  node.prev <- node;
  node.next <- node;
  Tbl.remove t.table node.key;
  t.size <- t.size - 1

(** [mem t ~file ~page] reports residency without touching recency. *)
let mem t ~file ~page = Tbl.mem t.table (pack ~file ~page)

let touch_key t key =
  match Tbl.find t.table key with
  | node ->
      unlink node;
      push_front t node;
      true
  | exception Not_found -> false

(** [touch t ~file ~page] returns [true] on a hit (promoting the page to
    MRU) and [false] on a miss (the caller is expected to fetch and
    [insert]). *)
let touch t ~file ~page = touch_key t (pack ~file ~page)

(** [insert t ~file ~page] makes the page resident at MRU position,
    evicting the LRU page if at capacity.  A no-op for an already-resident
    page or a zero-capacity cache. *)
let insert t ~file ~page =
  let key = pack ~file ~page in
  if t.capacity > 0 && not (touch_key t key) then begin
    if t.size >= t.capacity then forget t t.lru.prev;
    let node = { key; prev = t.lru; next = t.lru } in
    Tbl.add t.table key node;
    push_front t node;
    t.size <- t.size + 1
  end

(** [remove t ~file ~page] discards one resident page (a checksum-failed
    copy must not be served from cache).  A no-op if not resident. *)
let remove t ~file ~page =
  match Tbl.find t.table (pack ~file ~page) with
  | node -> forget t node
  | exception Not_found -> ()

(** [drop_file t file_id] discards all resident pages of a deleted file so
    they stop occupying capacity (components are deleted after a merge). *)
let drop_file t file_id =
  Tbl.fold
    (fun key node acc -> if key lsr 32 = file_id then node :: acc else acc)
    t.table []
  |> List.iter (forget t)

(** [clear t] empties the cache (used to run cold-cache experiments). *)
let clear t =
  Tbl.reset t.table;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru;
  t.size <- 0
