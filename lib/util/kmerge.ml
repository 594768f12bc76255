(** K-way merge of sorted streams: a binary min-heap of stream ids ordered
    by [(head key, stream id)].  See the interface for the contract. *)

type 'k t = {
  cmp : 'k -> 'k -> int;
  charge : int -> unit;  (** comparisons made by one push or pop *)
  mutable heads : 'k array;
      (** head key of each stream, then (last slot) the last popped head;
          allocated from the first key, so no dummy ['k] is needed *)
  heap : int array;  (** stream ids in heap order *)
  mutable size : int;
}

let create ~streams ~charge cmp =
  { cmp; charge; heads = [||]; heap = Array.make (max streams 0) 0; size = 0 }

let is_empty t = t.size = 0
let last t = t.heads.(Array.length t.heap)

(* Stream [a] sorts before stream [b]: one [cmp] call. *)
let[@inline] less cmp heads a b =
  let c = cmp (Array.unsafe_get heads a) (Array.unsafe_get heads b) in
  c < 0 || (c = 0 && a < b)

(* Sift-up from [i]; returns [n] plus the comparisons made. *)
let rec up cmp heads h i n =
  if i = 0 then n
  else begin
    let parent = (i - 1) / 2 in
    let a = h.(i) and b = h.(parent) in
    if less cmp heads a b then begin
      h.(i) <- b;
      h.(parent) <- a;
      up cmp heads h parent (n + 1)
    end
    else n + 1
  end

(* Sift-down from [i], comparing the left child and then the right child
   against the smaller so far (the classic array heap's exact comparison
   sequence); returns [n] plus the comparisons made. *)
let rec down cmp heads h size i n =
  let l = (2 * i) + 1 in
  if l >= size then n
  else begin
    let x = h.(i) and hl = h.(l) in
    let s, hs = if less cmp heads hl x then (l, hl) else (i, x) in
    let s, hs, n =
      if l + 1 < size then
        let hr = h.(l + 1) in
        if less cmp heads hr hs then (l + 1, hr, n + 2) else (s, hs, n + 2)
      else (s, hs, n + 1)
    in
    if s = i then n
    else begin
      h.(s) <- x;
      h.(i) <- hs;
      down cmp heads h size s n
    end
  end

let push t s key =
  if Array.length t.heads = 0 then
    t.heads <- Array.make (Array.length t.heap + 1) key;
  t.heads.(s) <- key;
  let i = t.size in
  t.heap.(i) <- s;
  t.size <- i + 1;
  let n = up t.cmp t.heads t.heap i 0 in
  if n > 0 then t.charge n

let pop t =
  if t.size = 0 then invalid_arg "Kmerge.pop: empty";
  let h = t.heap in
  let top = h.(0) in
  t.heads.(Array.length h) <- t.heads.(top);
  t.size <- t.size - 1;
  if t.size > 0 then begin
    h.(0) <- h.(t.size);
    let n = down t.cmp t.heads h t.size 0 0 in
    if n > 0 then t.charge n
  end;
  top
