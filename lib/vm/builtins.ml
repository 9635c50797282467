(** Builtin (native) functions callable from MiniPHP via [FCallBuiltin].

    Builtins receive argument values *borrowed* (the caller still owns the
    references and releases them after the call) and must return a value the
    caller owns (counted results must carry a fresh reference).

    `mt_rand` is a deterministic LCG so every execution mode replays the
    same behaviour — required for differential testing. *)

open Runtime.Value

let intern = Hhbc.Hunit.intern

(* Deterministic PRNG (numerical recipes LCG). *)
let rng_state = ref 0x12345678
let rng_next () =
  rng_state := (!rng_state * 1664525 + 1013904223) land 0x3FFFFFFF;
  !rng_state
let rng_seed s = rng_state := s land 0x3FFFFFFF

(** Dispatcher for PHP string callables ("fname") used by array_map etc.
    Installed by the loader; routes through the engine so callables run
    compiled when hot.  Arguments are consumed (callee frame owns them);
    the result is owned by the caller. *)
let call_string_fn : (string -> value array -> value) ref =
  ref (fun name _ -> fatal "callable %s used before VM initialization" name)

let arg (args : value array) (i : int) : value =
  if i < Array.length args then args.(i) else VNull

let need_arr name v =
  match v with
  | VArr a -> a
  | _ -> fatal "%s expects an array, got %s" name (tag_name (tag_of_value v))

let need_str name v =
  match v with
  | VStr s -> s.data
  | _ -> fatal "%s expects a string, got %s" name (tag_name (tag_of_value v))

let ret_str (s : string) : value = Runtime.Heap.new_str s

(** Builtin implementations.  Cost charged by the interpreter / JIT helper
    call machinery, plus a per-builtin surcharge returned by [cost]. *)
let call (name : string) (args : value array) : value =
  let a0 () = arg args 0 and a1 () = arg args 1 and a2 () = arg args 2 in
  match name with
  | "count" | "sizeof" ->
    (match a0 () with
     | VArr a -> VInt a.data.count
     | _ -> fatal "count expects an array")
  | "strlen" -> VInt (String.length (need_str "strlen" (a0 ())))
  | "substr" ->
    let s = need_str "substr" (a0 ()) in
    let n = String.length s in
    let start = to_int_val (a1 ()) in
    let start = if start < 0 then max 0 (n + start) else min start n in
    let len =
      match a2 () with
      | VNull | VUninit -> n - start
      | v ->
        let l = to_int_val v in
        if l < 0 then max 0 (n - start + l) else min l (n - start)
    in
    ret_str (String.sub s start len)
  | "strpos" ->
    let hay = need_str "strpos" (a0 ()) and needle = need_str "strpos" (a1 ()) in
    let nl = String.length needle and hl = String.length hay in
    let rec find i =
      if i + nl > hl then VBool false
      else if String.sub hay i nl = needle then VInt i
      else find (i + 1)
    in
    if nl = 0 then VInt 0 else find 0
  | "str_repeat" ->
    let s = need_str "str_repeat" (a0 ()) in
    let n = to_int_val (a1 ()) in
    let buf = Buffer.create (String.length s * max n 1) in
    for _ = 1 to n do Buffer.add_string buf s done;
    ret_str (Buffer.contents buf)
  | "strrev" ->
    let s = need_str "strrev" (a0 ()) in
    let n = String.length s in
    ret_str (String.init n (fun i -> s.[n - 1 - i]))
  | "strtoupper" -> ret_str (String.uppercase_ascii (need_str "strtoupper" (a0 ())))
  | "strtolower" -> ret_str (String.lowercase_ascii (need_str "strtolower" (a0 ())))
  | "trim" -> ret_str (String.trim (need_str "trim" (a0 ())))
  | "ord" ->
    let s = need_str "ord" (a0 ()) in
    VInt (if s = "" then 0 else Char.code s.[0])
  | "chr" -> ret_str (String.make 1 (Char.chr (to_int_val (a0 ()) land 255)))
  | "implode" | "join" ->
    let sep = need_str "implode" (a0 ()) in
    let a = need_arr "implode" (a1 ()) in
    let buf = Buffer.create 32 in
    Runtime.Varray.iter
      (fun _ v ->
         if Buffer.length buf > 0 then Buffer.add_string buf sep;
         Buffer.add_string buf (to_string_val v))
      a.data;
    ret_str (Buffer.contents buf)
  | "explode" ->
    let sep = need_str "explode" (a0 ()) in
    let s = need_str "explode" (a1 ()) in
    if sep = "" then fatal "explode: empty delimiter";
    let parts = ref [] and start = ref 0 in
    let sl = String.length sep and n = String.length s in
    let i = ref 0 in
    while !i + sl <= n do
      if String.sub s !i sl = sep then begin
        parts := String.sub s !start (!i - !start) :: !parts;
        start := !i + sl;
        i := !i + sl
      end else incr i
    done;
    parts := String.sub s !start (n - !start) :: !parts;
    let node = Runtime.Varray.of_values (List.rev_map intern !parts) in
    (* of_values incref'd the interned (static) strings: no-ops *)
    VArr node
  | "abs" ->
    (match a0 () with
     | VInt i -> VInt (abs i)
     | VDbl d -> VDbl (Float.abs d)
     | v -> VInt (abs (to_int_val v)))
  | "max" ->
    (match args with
     | [| VArr a |] ->
       if a.data.count = 0 then fatal "max of empty array";
       let best = ref (snd a.data.entries.(0)) in
       Runtime.Varray.iter (fun _ v -> if Runtime.Ops.compare_vals v !best > 0 then best := v) a.data;
       Runtime.Heap.incref !best; !best
     | _ ->
       if Array.length args = 0 then fatal "max of nothing";
       let best = ref args.(0) in
       Array.iter (fun v -> if Runtime.Ops.compare_vals v !best > 0 then best := v) args;
       Runtime.Heap.incref !best; !best)
  | "min" ->
    (match args with
     | [| VArr a |] ->
       if a.data.count = 0 then fatal "min of empty array";
       let best = ref (snd a.data.entries.(0)) in
       Runtime.Varray.iter (fun _ v -> if Runtime.Ops.compare_vals v !best < 0 then best := v) a.data;
       Runtime.Heap.incref !best; !best
     | _ ->
       if Array.length args = 0 then fatal "min of nothing";
       let best = ref args.(0) in
       Array.iter (fun v -> if Runtime.Ops.compare_vals v !best < 0 then best := v) args;
       Runtime.Heap.incref !best; !best)
  | "intdiv" ->
    let a = to_int_val (a0 ()) and b = to_int_val (a1 ()) in
    if b = 0 then fatal "intdiv by zero";
    VInt (a / b)
  | "sqrt" -> VDbl (sqrt (to_dbl_val (a0 ())))
  | "floor" -> VDbl (Float.floor (to_dbl_val (a0 ())))
  | "ceil" -> VDbl (Float.ceil (to_dbl_val (a0 ())))
  | "round" -> VDbl (Float.round (to_dbl_val (a0 ())))
  | "pow" ->
    (match a0 (), a1 () with
     | VInt b, VInt e when e >= 0 ->
       let rec go acc b e = if e = 0 then acc else go (if e land 1 = 1 then acc * b else acc) (b * b) (e lsr 1) in
       VInt (go 1 b e)
     | x, y -> VDbl (Float.pow (to_dbl_val x) (to_dbl_val y)))
  | "intval" -> VInt (to_int_val (a0 ()))
  | "floatval" | "doubleval" -> VDbl (to_dbl_val (a0 ()))
  | "strval" -> ret_str (to_string_val (a0 ()))
  | "boolval" -> VBool (truthy (a0 ()))
  | "is_int" | "is_integer" | "is_long" -> VBool (match a0 () with VInt _ -> true | _ -> false)
  | "is_float" | "is_double" -> VBool (match a0 () with VDbl _ -> true | _ -> false)
  | "is_string" -> VBool (match a0 () with VStr _ -> true | _ -> false)
  | "is_bool" -> VBool (match a0 () with VBool _ -> true | _ -> false)
  | "is_null" -> VBool (match a0 () with VNull -> true | _ -> false)
  | "is_array" -> VBool (match a0 () with VArr _ -> true | _ -> false)
  | "is_object" -> VBool (match a0 () with VObj _ -> true | _ -> false)
  | "is_numeric" -> VBool (match a0 () with VInt _ | VDbl _ -> true | _ -> false)
  | "array_keys" ->
    let a = need_arr "array_keys" (a0 ()) in
    let node = Runtime.Heap.new_arr_node () in
    Runtime.Varray.iter
      (fun k _ ->
         let kv = match k with KInt i -> VInt i | KStr s -> intern s in
         ignore (Runtime.Varray.append_raw node.data kv))
      a.data;
    VArr node
  | "array_values" ->
    let a = need_arr "array_values" (a0 ()) in
    let node = Runtime.Heap.new_arr_node () in
    Runtime.Varray.iter
      (fun _ v ->
         Runtime.Heap.incref v;
         ignore (Runtime.Varray.append_raw node.data v))
      a.data;
    VArr node
  | "array_reverse" ->
    let a = need_arr "array_reverse" (a0 ()) in
    let node = Runtime.Heap.new_arr_node () in
    for i = a.data.count - 1 downto 0 do
      let v = snd a.data.entries.(i) in
      Runtime.Heap.incref v;
      ignore (Runtime.Varray.append_raw node.data v)
    done;
    VArr node
  | "array_sum" ->
    let a = need_arr "array_sum" (a0 ()) in
    let si = ref 0 and sd = ref 0.0 and isd = ref false in
    Runtime.Varray.iter
      (fun _ v ->
         match v with
         | VInt i -> si := !si + i
         | VDbl d -> isd := true; sd := !sd +. d
         | _ -> ())
      a.data;
    if !isd then VDbl (!sd +. float_of_int !si) else VInt !si
  | "in_array" ->
    let needle = a0 () in
    let a = need_arr "in_array" (a1 ()) in
    let found = ref false in
    Runtime.Varray.iter (fun _ v -> if Runtime.Ops.loose_eq v needle then found := true) a.data;
    VBool !found
  | "array_key_exists" ->
    let k = Runtime.Varray.key_of_value (a0 ()) in
    let a = need_arr "array_key_exists" (a1 ()) in
    VBool (Runtime.Varray.find_opt a.data k <> None)
  | "sorted" ->
    (* MiniPHP variant of sort(): arguments are by-value, so the sorted
       array is returned instead of mutated in place *)
    let a = need_arr "sorted" (a0 ()) in
    let vs = Runtime.Varray.values a.data in
    let vs = List.stable_sort Runtime.Ops.compare_vals vs in
    let node = Runtime.Varray.of_values vs in
    VArr node
  | "mt_rand" | "rand" ->
    (match Array.length args with
     | 0 -> VInt (rng_next ())
     | _ ->
       let lo = to_int_val (a0 ()) and hi = to_int_val (a1 ()) in
       if hi < lo then fatal "mt_rand: hi < lo";
       VInt (lo + rng_next () mod (hi - lo + 1)))
  | "mt_srand" | "srand" -> rng_seed (to_int_val (a0 ())); VNull
  | "get_class" ->
    (match a0 () with
     | VObj o -> intern (Runtime.Vclass.get o.data.cls).c_name
     | _ -> VBool false)
  | "gettype" -> intern (tag_name (tag_of_value (a0 ())))
  | "var_dump_str" -> ret_str (debug_string (a0 ()))
  | "number_format" ->
    let d = to_dbl_val (a0 ()) in
    let dec = match a1 () with VNull | VUninit -> 0 | v -> to_int_val v in
    ret_str (Printf.sprintf "%.*f" dec d)
  | "ucfirst" ->
    let s = need_str "ucfirst" (a0 ()) in
    ret_str (if s = "" then s
             else String.make 1 (Char.uppercase_ascii s.[0])
                  ^ String.sub s 1 (String.length s - 1))
  | "lcfirst" ->
    let s = need_str "lcfirst" (a0 ()) in
    ret_str (if s = "" then s
             else String.make 1 (Char.lowercase_ascii s.[0])
                  ^ String.sub s 1 (String.length s - 1))
  | "str_pad" ->
    let s = need_str "str_pad" (a0 ()) in
    let len = to_int_val (a1 ()) in
    let pad = match a2 () with VNull | VUninit -> " " | v -> to_string_val v in
    if String.length s >= len || pad = "" then ret_str s
    else begin
      let buf = Buffer.create len in
      Buffer.add_string buf s;
      while Buffer.length buf < len do
        Buffer.add_string buf
          (String.sub pad 0 (min (String.length pad) (len - Buffer.length buf)))
      done;
      ret_str (Buffer.contents buf)
    end
  | "str_contains" ->
    let hay = need_str "str_contains" (a0 ()) in
    let needle = need_str "str_contains" (a1 ()) in
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    VBool (nl = 0 || go 0)
  | "str_split" ->
    let s = need_str "str_split" (a0 ()) in
    let k = match a1 () with VNull | VUninit -> 1 | v -> max 1 (to_int_val v) in
    let node = Runtime.Heap.new_arr_node () in
    let i = ref 0 in
    let n = String.length s in
    while !i < n do
      let len = min k (n - !i) in
      ignore (Runtime.Varray.append_raw node.data
                (Runtime.Heap.new_str (String.sub s !i len)));
      i := !i + len
    done;
    VArr node
  | "sprintf" ->
    (* a practical subset: %s %d %f %.Nf %x %% and %0Nd padding *)
    let fmt = need_str "sprintf" (a0 ()) in
    let buf = Buffer.create (String.length fmt + 16) in
    let argi = ref 1 in
    let next () = let v = arg args !argi in incr argi; v in
    let n = String.length fmt in
    let i = ref 0 in
    while !i < n do
      let c = fmt.[!i] in
      if c <> '%' || !i = n - 1 then begin
        Buffer.add_char buf c; incr i
      end else begin
        (* scan the conversion: %[0][width][.prec]conv *)
        let j = ref (!i + 1) in
        while !j < n && (fmt.[!j] = '0' || fmt.[!j] = '.'
                         || (fmt.[!j] >= '1' && fmt.[!j] <= '9')) do incr j done;
        if !j >= n then begin Buffer.add_char buf c; incr i end
        else begin
          let spec = String.sub fmt !i (!j - !i + 1) in
          (match fmt.[!j] with
           | '%' -> Buffer.add_char buf '%'
           | 's' -> Buffer.add_string buf (to_string_val (next ()))
           | 'd' ->
             let v = to_int_val (next ()) in
             (try Buffer.add_string buf
                    (Scanf.format_from_string spec "%d" |> fun f ->
                     Printf.sprintf f v)
              with _ -> Buffer.add_string buf (string_of_int v))
           | 'f' ->
             let v = to_dbl_val (next ()) in
             (try Buffer.add_string buf
                    (Scanf.format_from_string spec "%f" |> fun f ->
                     Printf.sprintf f v)
              with _ -> Buffer.add_string buf (Printf.sprintf "%f" v))
           | 'x' -> Buffer.add_string buf (Printf.sprintf "%x" (to_int_val (next ())))
           | 'X' -> Buffer.add_string buf (Printf.sprintf "%X" (to_int_val (next ())))
           | 'b' ->
             let v = to_int_val (next ()) in
             let rec bits v acc = if v = 0 then acc else bits (v lsr 1)
                 (string_of_int (v land 1) ^ acc) in
             Buffer.add_string buf (if v = 0 then "0" else bits v "")
           | u -> fatal "sprintf: unsupported conversion %%%c" u);
          i := !j + 1
        end
      end
    done;
    ret_str (Buffer.contents buf)
  | "range" ->
    let lo = to_int_val (a0 ()) and hi = to_int_val (a1 ()) in
    let step = match a2 () with VNull | VUninit -> 1 | v -> max 1 (to_int_val v) in
    let node = Runtime.Heap.new_arr_node () in
    if lo <= hi then begin
      let i = ref lo in
      while !i <= hi do
        ignore (Runtime.Varray.append_raw node.data (VInt !i));
        i := !i + step
      done
    end else begin
      let i = ref lo in
      while !i >= hi do
        ignore (Runtime.Varray.append_raw node.data (VInt !i));
        i := !i - step
      done
    end;
    VArr node
  | "array_merge" ->
    let node = Runtime.Heap.new_arr_node () in
    Array.iter
      (fun v ->
         let a = need_arr "array_merge" v in
         Runtime.Varray.iter
           (fun k el ->
              Runtime.Heap.incref el;
              match k with
              | KInt _ -> ignore (Runtime.Varray.append_raw node.data el)
              | KStr s ->
                (match Runtime.Varray.set_raw node.data (KStr s) el with
                 | Some old -> Runtime.Heap.decref old
                 | None -> ()))
           a.data)
      args;
    VArr node
  | "array_slice" ->
    let a = need_arr "array_slice" (a0 ()) in
    let n = a.data.count in
    let off = to_int_val (a1 ()) in
    let off = if off < 0 then max 0 (n + off) else min off n in
    let len = match a2 () with
      | VNull | VUninit -> n - off
      | v -> let l = to_int_val v in
        if l < 0 then max 0 (n - off + l) else min l (n - off)
    in
    let node = Runtime.Heap.new_arr_node () in
    for i = off to off + len - 1 do
      let v = snd a.data.entries.(i) in
      Runtime.Heap.incref v;
      ignore (Runtime.Varray.append_raw node.data v)
    done;
    VArr node
  | "array_map" ->
    (* callable given as a function name (PHP string callables) *)
    let fname = need_str "array_map" (a0 ()) in
    let a = need_arr "array_map" (a1 ()) in
    let node = Runtime.Heap.new_arr_node () in
    Runtime.Varray.iter
      (fun _ v ->
         Runtime.Heap.incref v;   (* callee consumes one reference *)
         let r = !call_string_fn fname [| v |] in
         ignore (Runtime.Varray.append_raw node.data r))
      a.data;
    VArr node
  | "array_filter" ->
    let a = need_arr "array_filter" (a0 ()) in
    let fname = match a1 () with
      | VNull | VUninit -> None
      | v -> Some (need_str "array_filter" v)
    in
    let node = Runtime.Heap.new_arr_node () in
    Runtime.Varray.iter
      (fun k v ->
         let keep =
           match fname with
           | None -> truthy v
           | Some f ->
             Runtime.Heap.incref v;
             let r = !call_string_fn f [| v |] in
             let b = truthy r in
             Runtime.Heap.decref r;
             b
         in
         if keep then begin
           Runtime.Heap.incref v;
           match Runtime.Varray.set_raw node.data k v with
           | Some old -> Runtime.Heap.decref old
           | None -> ()
         end)
      a.data;
    VArr node
  | "usorted" ->
    (* by-value variant of usort: returns a sorted copy; comparator is a
       function-name callable *)
    let a = need_arr "usorted" (a0 ()) in
    let fname = need_str "usorted" (a1 ()) in
    let vs = Runtime.Varray.values a.data in
    let cmp x y =
      Runtime.Heap.incref x;
      Runtime.Heap.incref y;
      let r = !call_string_fn fname [| x; y |] in
      let c = to_int_val r in
      Runtime.Heap.decref r;
      c
    in
    let vs = List.stable_sort cmp vs in
    VArr (Runtime.Varray.of_values vs)
  | _ -> fatal "call to undefined function %s()" name

(** Extra simulated cost of each builtin beyond the call overhead; coarse. *)
let cost (name : string) (args : value array) : int =
  match name with
  | "count" | "strlen" | "is_int" | "is_float" | "is_string" | "is_bool"
  | "is_null" | "is_array" | "is_object" | "is_numeric" | "ord" | "chr"
  | "abs" | "intval" | "boolval" | "gettype" -> 4
  | "implode" | "explode" | "array_keys" | "array_values" | "array_reverse"
  | "array_sum" | "in_array" | "sorted" | "range" | "array_merge"
  | "array_slice" | "array_map" | "array_filter" | "usorted" | "str_split" ->
    (match args with
     | [||] -> 10
     | _ ->
       let n = Array.fold_left (fun acc v -> match v with VArr a -> acc + a.data.count | _ -> acc) 0 args in
       10 + 4 * n)
  | "str_repeat" | "strrev" | "strtoupper" | "strtolower" | "substr" | "strpos" -> 12
  | _ -> 8
