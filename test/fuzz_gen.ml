(** The differential fuzzer: a generator of random (but well-typed enough
    to avoid fatals) MiniPHP programs, and the property that the
    interpreter, the tracelet JIT and the region JIT (before and after
    retranslate-all) produce byte-identical output and a clean heap audit.
    [test_differential] runs it over a fixed seed stream; [dbg_seeds]
    runs it over any seed range from the command line. *)

(* ------------------------------------------------------------------ *)
(* A typed random program generator                                    *)
(* ------------------------------------------------------------------ *)

type vty = TInt | TDbl | TStr | TArr

type genv = {
  mutable vars : (string * vty) list;
  mutable fresh : int;
  buf : Buffer.t;
  mutable indent : int;
  rand : Random.State.t;
}

let pick g l = List.nth l (Random.State.int g.rand (List.length l))

let vars_of g ty = List.filter (fun (_, t) -> t = ty) g.vars

let line g s =
  Buffer.add_string g.buf (String.make (g.indent * 2) ' ');
  Buffer.add_string g.buf s;
  Buffer.add_char g.buf '\n'

(* expressions of a requested type; depth-bounded *)
let rec gen_expr g ty depth : string =
  let leaf () =
    match ty with
    | TInt ->
      (match vars_of g TInt with
       | [] -> string_of_int (Random.State.int g.rand 100)
       | vs ->
         if Random.State.bool g.rand then "$" ^ fst (pick g vs)
         else string_of_int (Random.State.int g.rand 100))
    | TDbl ->
      (match vars_of g TDbl with
       | [] -> Printf.sprintf "%d.5" (Random.State.int g.rand 20)
       | vs ->
         if Random.State.bool g.rand then "$" ^ fst (pick g vs)
         else Printf.sprintf "%d.25" (Random.State.int g.rand 20))
    | TStr ->
      (match vars_of g TStr with
       | [] -> Printf.sprintf "\"s%d\"" (Random.State.int g.rand 50)
       | vs ->
         if Random.State.bool g.rand then "$" ^ fst (pick g vs)
         else Printf.sprintf "\"t%d\"" (Random.State.int g.rand 50))
    | TArr ->
      (match vars_of g TArr with
       | [] ->
         let n = 1 + Random.State.int g.rand 4 in
         "[" ^ String.concat ", "
           (List.init n (fun _ -> string_of_int (Random.State.int g.rand 50)))
         ^ "]"
       | vs -> "$" ^ fst (pick g vs))
  in
  if depth <= 0 then leaf ()
  else
    match ty with
    | TInt ->
      (match Random.State.int g.rand 11 with
       | 0 -> Printf.sprintf "(%s + %s)" (gen_expr g TInt (depth - 1)) (gen_expr g TInt (depth - 1))
       | 1 -> Printf.sprintf "(%s - %s)" (gen_expr g TInt (depth - 1)) (gen_expr g TInt (depth - 1))
       | 2 -> Printf.sprintf "(%s * %s)" (gen_expr g TInt (depth - 1))
                (string_of_int (1 + Random.State.int g.rand 5))
       | 3 -> Printf.sprintf "(%s %% %d)" (gen_expr g TInt (depth - 1))
                (2 + Random.State.int g.rand 9)
       | 4 -> Printf.sprintf "strlen(%s)" (gen_expr g TStr (depth - 1))
       | 5 -> Printf.sprintf "count(%s)" (gen_expr g TArr (depth - 1))
       (* unary operators and casts *)
       | 6 -> Printf.sprintf "(-%s)" (gen_expr g TInt (depth - 1))
       | 7 -> Printf.sprintf "(~%s)" (gen_expr g TInt (depth - 1))
       | 8 ->
         Printf.sprintf "(int)%s%s" (pick g [ "!"; "(bool)" ])
           (gen_expr g (pick g [ TInt; TDbl; TStr ]) (depth - 1))
       | 9 -> Printf.sprintf "(int)(string)%s" (gen_expr g TInt (depth - 1))
       | _ -> Printf.sprintf "(int)%s" (gen_expr g TDbl (depth - 1)))
    | TDbl ->
      (match Random.State.int g.rand 8 with
       | 0 -> Printf.sprintf "(%s + %s)" (gen_expr g TDbl (depth - 1)) (gen_expr g TDbl (depth - 1))
       | 1 -> Printf.sprintf "(%s * 0.5)" (gen_expr g TDbl (depth - 1))
       (* operator edges: overflow to inf, and NaN as inf - inf *)
       | 2 -> Printf.sprintf "(%s * 1e300 * 1e300)" (gen_expr g TDbl (depth - 1))
       | 3 ->
         Printf.sprintf "(%s * 1e300 * 1e300 - 1e300 * 1e300)"
           (gen_expr g TDbl (depth - 1))
       | 4 -> Printf.sprintf "(-%s)" (gen_expr g TDbl (depth - 1))
       | 5 -> Printf.sprintf "(float)%s" (gen_expr g TInt (depth - 1))
       (* negative zero *)
       | 6 -> Printf.sprintf "(-(float)(%s %% 1))" (gen_expr g TInt (depth - 1))
       | _ -> Printf.sprintf "(%s + 0.25)" (gen_expr g TDbl (depth - 1)))
    | TStr ->
      (match Random.State.int g.rand 4 with
       | 0 -> Printf.sprintf "(%s . %s)" (gen_expr g TStr (depth - 1)) (gen_expr g TStr (depth - 1))
       | 1 -> Printf.sprintf "(%s . %s)" (gen_expr g TStr (depth - 1)) (gen_expr g TInt (depth - 1))
       | 2 ->
         Printf.sprintf "(string)%s"
           (gen_expr g (pick g [ TInt; TDbl; TStr ]) (depth - 1))
       | _ -> Printf.sprintf "substr(%s, 0, 3)" (gen_expr g TStr (depth - 1)))
    | TArr -> leaf ()

let gen_cond g depth =
  if Random.State.int g.rand 3 = 0 then
    let a = gen_expr g TDbl depth and b = gen_expr g TDbl depth in
    Printf.sprintf "%s %s %s" a (pick g [ "=="; "==="; "<" ]) b
  else
    let a = gen_expr g TInt depth and b = gen_expr g TInt depth in
    let op = pick g [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
    Printf.sprintf "%s %s %s" a op b

let new_var ?(prefix = "v") g ty =
  let name = Printf.sprintf "%s%d" prefix g.fresh in
  g.fresh <- g.fresh + 1;
  g.vars <- (name, ty) :: g.vars;
  name

(* loop counters must never be reassigned by the mutation rule or generated
   loops may not terminate *)
let mutable_vars g =
  List.filter (fun (n, _) -> not (String.length n > 2 && n.[0] = 'i' && n.[1] = 'x'))
    g.vars

let incdec g = pick g [ ("", "++"); ("", "--"); ("++", ""); ("--", "") ]

let rec gen_stmt g depth =
  match Random.State.int g.rand 12 with
  | 0 | 1 ->
    let ty = pick g [ TInt; TInt; TDbl; TStr; TArr ] in
    (* generate the initializer before registering the variable, so it
       cannot reference itself *)
    let rhs = gen_expr g ty 2 in
    let v = new_var g ty in
    line g (Printf.sprintf "$%s = %s;" v rhs)
  | 2 ->
    (* mutate an existing variable, same type (never a loop counter) *)
    (match mutable_vars g with
     | [] -> gen_stmt g depth
     | vars ->
       let v, ty = pick g vars in
       (match ty with
        | TArr -> line g (Printf.sprintf "$%s[] = %s;" v (gen_expr g TInt 1))
        | TStr ->
          (* bound the result: a self-referencing concat inside nested
             loops would otherwise grow the string exponentially *)
          line g (Printf.sprintf "$%s = substr(%s, 0, 24);" v (gen_expr g TStr 2))
        | _ -> line g (Printf.sprintf "$%s = %s;" v (gen_expr g ty 2))))
  | 3 when depth > 0 ->
    (* variables introduced inside a branch are not definitely assigned
       afterwards: scope them to the branch *)
    let saved = g.vars in
    line g (Printf.sprintf "if (%s) {" (gen_cond g 1));
    g.indent <- g.indent + 1;
    gen_block g (depth - 1) (1 + Random.State.int g.rand 2);
    g.indent <- g.indent - 1;
    g.vars <- saved;
    if Random.State.bool g.rand then begin
      line g "} else {";
      g.indent <- g.indent + 1;
      gen_block g (depth - 1) 1;
      g.indent <- g.indent - 1;
      g.vars <- saved
    end;
    line g "}"
  | 4 when depth > 0 ->
    let i = new_var ~prefix:"ix" g TInt in
    let saved = g.vars in
    let n = 2 + Random.State.int g.rand 8 in
    line g (Printf.sprintf "for ($%s = 0; $%s < %d; $%s++) {" i i n i);
    g.indent <- g.indent + 1;
    gen_block g (depth - 1) (1 + Random.State.int g.rand 2);
    g.indent <- g.indent - 1;
    g.vars <- saved;
    line g "}"
  | 5 when vars_of g TArr <> [] && depth > 0 ->
    let a, _ = pick g (vars_of g TArr) in
    let saved = g.vars in
    let v = new_var g TInt in
    line g (Printf.sprintf "foreach ($%s as $%s) {" a v);
    g.indent <- g.indent + 1;
    gen_block g (depth - 1) 1;
    g.indent <- g.indent - 1;
    g.vars <- saved;
    line g "}"
  | 6 ->
    line g (Printf.sprintf "echo %s, \"|\";" (gen_expr g TInt 2))
  | 7 ->
    line g (Printf.sprintf "echo %s, \"|\";" (gen_expr g TStr 2))
  | 8 when vars_of g TArr <> [] ->
    let a, _ = pick g (vars_of g TArr) in
    line g (Printf.sprintf "$%s[%d] = %s;" a
              (Random.State.int g.rand 4) (gen_expr g TInt 1))
  | 9 ->
    (* ++/-- on a number keeps its type (never a loop counter) *)
    (match List.filter (fun (_, t) -> t = TInt || t = TDbl) (mutable_vars g) with
     | [] -> gen_stmt g depth
     | vars ->
       let v, _ = pick g vars in
       let pre, post = incdec g in
       if Random.State.bool g.rand then line g (Printf.sprintf "%s$%s%s;" pre v post)
       else line g (Printf.sprintf "echo %s$%s%s, \"|\";" pre v post))
  | 10 ->
    (* ++/-- on null: null-- stays null, null++ is 1; the local is left
       out of [g.vars], whose types are fixed *)
    let n = Printf.sprintf "n%d" g.fresh in
    g.fresh <- g.fresh + 1;
    line g (Printf.sprintf "$%s = null;" n);
    for _ = 0 to Random.State.int g.rand 2 do
      let pre, post = incdec g in
      line g (Printf.sprintf "echo (%s$%s%s === null) ? \"N\" : \"v\", $%s, \"|\";"
                pre n post n)
    done
  | _ ->
    line g (Printf.sprintf "echo %s, \";\";" (gen_expr g TInt 1))

and gen_block g depth n =
  for _ = 1 to n do gen_stmt g depth done

let gen_program (seed : int) : string =
  let g = { vars = []; fresh = 0; buf = Buffer.create 512; indent = 1;
            rand = Random.State.make [| seed |] } in
  Buffer.add_string g.buf "function main() {\n";
  (* a few seed variables so expressions have material *)
  line g "$v_i = 7; $v_j = 3;";
  g.vars <- [ ("v_i", TInt); ("v_j", TInt) ];
  gen_block g 2 (4 + Random.State.int g.rand 6);
  line g "echo \"end\";";
  Buffer.add_string g.buf "}\n";
  Buffer.contents g.buf

(* ------------------------------------------------------------------ *)
(* The differential property                                           *)
(* ------------------------------------------------------------------ *)

exception Mode_failed of string * exn

let run_mode (mode : Core.Jit_options.mode) ~retranslate (src : string)
  : string * string list =
  let u = Vm.Loader.load src in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.mode <- mode;
  let eng = Core.Engine.install ~opts u in
  let call () =
    let r, out = Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" []) in
    Runtime.Heap.decref r;
    out
  in
  let o1 = call () in
  if retranslate then ignore (Core.Engine.retranslate_all eng);
  let o2 = call () in
  if o1 <> o2 then failwith "non-deterministic across reruns";
  (o1, Runtime.Heap.live_allocations ())

let check_program (seed : int) : bool =
  let src = gen_program seed in
  let guard name mode retranslate =
    try run_mode mode ~retranslate src
    with e -> raise (Mode_failed (name, e))
  in
  try
    let expected, leaks0 = guard "interp" Core.Jit_options.Interp false in
    let tracelet, leaks1 = guard "tracelet" Core.Jit_options.Tracelet false in
    let region, leaks2 = guard "region" Core.Jit_options.Region true in
    if leaks0 <> [] then QCheck.Test.fail_reportf "interp leaked: seed %d" seed;
    if leaks1 <> [] then QCheck.Test.fail_reportf "tracelet leaked: seed %d" seed;
    if leaks2 <> [] then QCheck.Test.fail_reportf "region leaked: seed %d" seed;
    if tracelet <> expected then
      QCheck.Test.fail_reportf "tracelet output differs (seed %d)\nsrc:\n%s\nexpected %S got %S"
        seed src expected tracelet;
    if region <> expected then
      QCheck.Test.fail_reportf "region output differs (seed %d)\nsrc:\n%s\nexpected %S got %S"
        seed src expected region;
    true
  with Mode_failed (name, e) ->
    QCheck.Test.fail_reportf "mode %s raised %s (seed %d)\nsrc:\n%s"
      name (Printexc.to_string e) seed src
