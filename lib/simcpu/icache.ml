(** Set-associative instruction-cache model with LRU replacement.

    Code locality (basic-block layout, hot/cold splitting, function sorting)
    is evaluated through this model: every simulated instruction fetch maps
    its byte address to a cache line; misses charge {!miss_cycles}.

    Each set keeps its tags in recency order, most recent first: a hit
    moves its tag to the front, a miss drops the last tag and puts the new
    one at the front.  That is exact LRU with no use stamps, and the
    common hit (the set's most recent line) touches one word. *)

type t = {
  sets : int;
  ways : int;
  line_bits : int;
  set_bits : int;               (* log2 sets: line -> set is a mask *)
  (* set [s]'s tags, most recent first, at [s * ways .. s * ways + ways - 1];
     -1 = empty *)
  tags : int array;
  mutable accesses : int;
  mutable misses : int;
  (* fast path: the last line fetched; [Exec.run] reads it to skip
     fetches that would return 0 *)
  mutable last_line : int;
}

let miss_cycles = 36

let log2_exact what n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "Icache.create: %s = %d is not a power of two" what n);
  let rec go b = if 1 lsl b = n then b else go (b + 1) in
  go 0

(* The default capacity is scaled down from a real 32 KB L1i in proportion
   to the simulated workload's code footprint (tens-hundreds of KB here vs
   hundreds of MB in the paper), preserving the code:cache pressure that
   drives the layout/splitting/sorting experiments.  Line size and set
   count must be powers of two. *)
let create ?(size_kb = 2) ?(ways = 4) ?(line_bytes = 64) () : t =
  let lines = size_kb * 1024 / line_bytes in
  let sets = max 1 (lines / ways) in
  { sets; ways; line_bits = log2_exact "line_bytes" line_bytes;
    set_bits = log2_exact "sets" sets;
    tags = Array.make (sets * ways) (-1);
    accesses = 0; misses = 0; last_line = -1 }

(** Recency-ordered lookup, shared with {!Itlb}: [a.(base .. base+n-1)]
    holds tags most recent first.  Moves [x] to the front, shifting the
    more recent tags back one place; on a miss the last tag drops out.
    Returns whether [x] was present.  Callers test the front tag
    themselves first, the common hit. *)
let[@inline] touch (a : int array) (base : int) (n : int) (x : int) : bool =
  let last = base + n - 1 in
  let prev = ref a.(base) and w = ref (base + 1) in
  while !w <= last && a.(!w) <> x do
    let t = a.(!w) in
    a.(!w) <- !prev;
    prev := t;
    incr w
  done;
  let hit = !w <= last in
  if hit then a.(!w) <- !prev;
  a.(base) <- x;
  hit

(** Access [addr]; returns the cycle cost of the fetch (0 on a same-line hit). *)
let access (c : t) (addr : int) : int =
  let line = addr lsr c.line_bits in
  if line = c.last_line then 0
  else begin
    c.last_line <- line;
    c.accesses <- c.accesses + 1;
    let tag = line lsr c.set_bits in
    let base = (line land (c.sets - 1)) * c.ways in
    if c.tags.(base) = tag || touch c.tags base c.ways tag then 0
    else begin
      c.misses <- c.misses + 1;
      miss_cycles
    end
  end
