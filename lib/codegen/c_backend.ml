(* C backend: lowered IR -> one self-contained C translation unit.

   Every SSA value becomes a C local ([v<id>]).  Scalars map to
   double/int64_t/int; vectors map to GNU vector types declared once per
   unit — [vdN] (N doubles) for f64 lanes, [vlN] (N int64_t) for i64 lanes
   and for i1 masks — so the vectors explicit in the IR reach cc as
   vectors instead of being rediscovered from scalar lane loops.
   Element-wise arithmetic, compares and bitwise ops are whole-vector C
   expressions; select is a bit-blend over the compare mask; splats,
   broadcasts and iota are brace initializers; contiguous loads and
   stores are one memcpy of the whole vector.  A per-lane loop remains
   only where C has no bit-exact vector form: libm calls, ml_fmin/ml_fmax,
   fmod, gather/scatter and the LUT helpers.  scf.for becomes a plain
   countable [for], scf.if an if/else assigning pre-declared result
   locals.

   Mask convention: a vector i1 is 0 or -1 (all bits set) per lane — what
   a GNU vector compare yields — so select can blend by bits; a scalar i1
   is an [int] 0 or 1, and extracting a mask lane normalizes to that.

   Bitwise parity with the OCaml engines is the design constraint, not an
   accident:
   - float constants print as C hex literals (exact bit patterns);
   - math builtins map to the same libm entry points the interpreter's
     registry calls (OCaml's Float.exp etc. are direct libm externs);
   - fmin/fmax/min/max and arith.minf/maxf use OCaml Float.min/Float.max
     semantics (NaN-propagating, -0 < +0), emitted as ml_fmin/ml_fmax
     rather than C fmin/fmax (which differ on NaN);
   - LUT interpolation (linear + Catmull-Rom) is emitted inline as an
     operation-for-operation transcription of Runtime.Lut;
   - the unit is compiled with -ffp-contract=off -fno-fast-math (see
     Exec.Native.flags) so no FMA contraction or libm replacement can
     perturb results. *)

open Ir

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let sanitize (s : string) : string =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
    s

let symbol (name : string) : string = "limpet_" ^ sanitize name

(* static (internal) definition name for an IR function *)
let local_fn (name : string) : string = "k_" ^ sanitize name

let scalar_cty : Ty.t -> string = function
  | Ty.F64 -> "double"
  | Ty.I64 -> "int64_t"
  | Ty.I1 -> "int"
  | t -> unsupported "no scalar C type for %s" (Ty.to_string t)

(* C type of any SSA value: vectors are the GNU vector typedefs that
   [typedefs] declares. *)
let cty : Ty.t -> string = function
  | Ty.Vec (w, Ty.F64) -> Printf.sprintf "vd%d" w
  | Ty.Vec (w, (Ty.I64 | Ty.I1)) -> Printf.sprintf "vl%d" w
  | t -> scalar_cty t

(* Exact-bit float literals.  %h prints C99 hex floats; NaN/inf have no
   literal syntax, so synthesize them arithmetically (evaluated at
   compile time; the payload of the OCaml "nan" constant is the default
   quiet NaN either way once it flows through arithmetic). *)
let float_lit (f : float) : string =
  if Float.is_nan f then "(0.0 / 0.0)"
  else if f = Float.infinity then "(1.0 / 0.0)"
  else if f = Float.neg_infinity then "(-1.0 / 0.0)"
  else Printf.sprintf "%h" f

type ctx = {
  buf : Buffer.t;
  names : (int, string) Hashtbl.t; (* value id -> C local name *)
  locals : (string, unit) Hashtbl.t; (* names of module-local functions *)
  consts : (int, unit) Hashtbl.t;
      (* value ids the C compiler could prove compile-time constant;
         transcendental calls over these are emitted behind a volatile
         guard (see [mark_const]) *)
  pconsts : (int, unit) Hashtbl.t;
      (* value ids constant along at least one execution path — a select
         with a constant arm, or pure arithmetic over such a value.  GCC
         distributes a libm call over the phi and folds the constant arm
         with MPFR, so these need the same volatile guard. *)
}

let pr ctx ind fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf (String.make (2 * ind) ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let vname ctx (v : Value.t) : string =
  match Hashtbl.find_opt ctx.names v.Value.id with
  | Some n -> n
  | None ->
      let n = Printf.sprintf "v%d" v.Value.id in
      Hashtbl.add ctx.names v.Value.id n;
      n

(* Declare (without initializing) storage for a value. *)
let decl ctx ind (v : Value.t) : unit =
  pr ctx ind "%s %s;" (cty v.Value.ty) (vname ctx v)

(* Assign previously-declared [dst] from the local named [src]. *)
let assign ctx ind (dst : Value.t) (src : string) : unit =
  pr ctx ind "%s = %s;" (vname ctx dst) src

(* Vector initializer from per-lane expressions. *)
let braces (lanes : string list) : string = "{" ^ String.concat ", " lanes ^ "}"

let cmp_op : Op.cmp -> string = function
  | Op.Lt -> "<"
  | Op.Le -> "<="
  | Op.Gt -> ">"
  | Op.Ge -> ">="
  | Op.Eq -> "=="
  | Op.Ne -> "!="

let fbin_expr (k : Op.fbin) (a : string) (b : string) : string =
  match k with
  | Op.FAdd -> Printf.sprintf "(%s + %s)" a b
  | Op.FSub -> Printf.sprintf "(%s - %s)" a b
  | Op.FMul -> Printf.sprintf "(%s * %s)" a b
  | Op.FDiv -> Printf.sprintf "(%s / %s)" a b
  | Op.FMin -> Printf.sprintf "ml_fmin(%s, %s)" a b
  | Op.FMax -> Printf.sprintf "ml_fmax(%s, %s)" a b
  | Op.FRem -> Printf.sprintf "fmod(%s, %s)" a b

let ibin_expr (k : Op.ibin) (a : string) (b : string) : string =
  (* OCaml (/) and (mod) truncate toward zero — exactly C's semantics. *)
  let op =
    match k with
    | Op.IAdd -> "+"
    | Op.ISub -> "-"
    | Op.IMul -> "*"
    | Op.IDiv -> "/"
    | Op.IRem -> "%"
  in
  Printf.sprintf "(%s %s %s)" a op b

let bbin_expr (k : Op.bbin) (a : string) (b : string) : string =
  (* bool-like values are canonical (0/1 scalars, 0/-1 mask lanes), so
     bitwise ops implement the (non-short-circuiting, as in Lower) logical
     connectives *)
  let op = match k with Op.BAnd -> "&" | Op.BOr -> "|" | Op.BXor -> "^" in
  Printf.sprintf "(%s %s %s)" a op b

(* One builtin registry mirror: must agree with Exec.Engine's
   unary_fn/binary_fn tables (same libm entry point, same argument
   order).  Arguments are local names — pure, safe to repeat. *)
let math_expr (name : string) (a : string array) : string =
  match (name, Array.length a) with
  | "square", 1 -> Printf.sprintf "(%s * %s)" a.(0) a.(0)
  | "cube", 1 -> Printf.sprintf "(%s * %s * %s)" a.(0) a.(0) a.(0)
  | ("fabs" | "abs"), 1 -> Printf.sprintf "fabs(%s)" a.(0)
  | ("min" | "fmin"), 2 -> Printf.sprintf "ml_fmin(%s, %s)" a.(0) a.(1)
  | ("max" | "fmax"), 2 -> Printf.sprintf "ml_fmax(%s, %s)" a.(0) a.(1)
  | "fmod", 2 -> Printf.sprintf "fmod(%s, %s)" a.(0) a.(1)
  | (("pow" | "atan2" | "hypot") as f), 2 ->
      Printf.sprintf "%s(%s, %s)" f a.(0) a.(1)
  | ( (( "exp" | "expm1" | "log" | "log1p" | "log10" | "log2" | "sqrt"
       | "cbrt" | "sin" | "cos" | "tan" | "tanh" | "sinh" | "cosh" | "asin"
       | "acos" | "atan" | "floor" | "ceil" | "round" | "trunc" ) as f),
      1 ) ->
      Printf.sprintf "%s(%s)" f a.(0)
  | _ -> unsupported "math builtin %s/%d has no C lowering" name (Array.length a)

let operand_names ctx (o : Op.op) : string array =
  Array.map (vname ctx) o.Op.operands

(* Builtins whose C implementation may legitimately differ from libm by
   1 ULP when the C compiler folds a constant-argument call at compile
   time (GCC/Clang fold through correctly-rounded MPFR; glibc is only
   faithfully rounded).  Exactly-specified operations — arithmetic,
   sqrt, fabs, floor/ceil/trunc/round, fmod, and our ml_fmin/ml_fmax —
   fold bitwise-identically and need no protection. *)
let libm_folds = function
  | "exp" | "expm1" | "log" | "log1p" | "log10" | "log2" | "cbrt" | "sin"
  | "cos" | "tan" | "tanh" | "sinh" | "cosh" | "asin" | "acos" | "atan"
  | "pow" | "atan2" | "hypot" ->
      true
  | _ -> false

let all_operands_const ctx (o : Op.op) : bool =
  Array.length o.Op.operands > 0
  && Array.for_all
       (fun (v : Value.t) -> Hashtbl.mem ctx.consts v.Value.id)
       o.Op.operands

(* Constant along at least one path (which includes fully constant). *)
let is_pconst ctx (v : Value.t) : bool =
  Hashtbl.mem ctx.consts v.Value.id || Hashtbl.mem ctx.pconsts v.Value.id

(* Every operand provably constant along some common path — the
   condition under which a C compiler can fold a libm call over that
   path (splitting the select into a phi and folding the constant
   arm). *)
let all_operands_pconst ctx (o : Op.op) : bool =
  Array.length o.Op.operands > 0 && Array.for_all (is_pconst ctx) o.Op.operands

(* Track what a C compiler's constant propagation could prove: constants
   themselves, pure element-wise ops fed only by constants, and —
   path-wise — selects with a constant arm plus arithmetic over them.
   Region results (For/If), loads and calls stay opaque.  A guarded
   transcendental's result is deliberately NOT marked — the volatile
   read below makes it unprovable, which also stops the guards from
   cascading. *)
let mark_const ctx (o : Op.op) : unit =
  let mark () =
    Array.iter
      (fun (r : Value.t) -> Hashtbl.replace ctx.consts r.Value.id ())
      o.Op.results
  in
  let mark_p () =
    Array.iter
      (fun (r : Value.t) -> Hashtbl.replace ctx.pconsts r.Value.id ())
      o.Op.results
  in
  match o.Op.kind with
  | Op.ConstF _ | Op.ConstI _ | Op.ConstB _ | Op.Iota _ -> mark ()
  | Op.Select ->
      if all_operands_const ctx o then mark ()
      else if
        (* a constant data arm is foldable along the path that takes it,
           whatever the condition or the other arm hold *)
        Array.length o.Op.operands = 3
        && (is_pconst ctx o.Op.operands.(1) || is_pconst ctx o.Op.operands.(2))
      then mark_p ()
  | Op.BinF _ | Op.NegF | Op.BinI _ | Op.BinB _ | Op.NotB | Op.CmpF _
  | Op.CmpI _ | Op.SIToFP | Op.FPToSI | Op.Broadcast | Op.VecExtract _ ->
      if all_operands_const ctx o then mark ()
      else if all_operands_pconst ctx o then mark_p ()
  | Op.Math name ->
      if not (libm_folds name) then
        if all_operands_const ctx o then mark ()
        else if all_operands_pconst ctx o then mark_p ()
  | _ -> ()

(* Element-wise op whose C expression reads the same over scalars and
   GNU vectors: one definition of the result local. *)
let emit_ew ctx ind (o : Op.op) (f : string array -> string) : unit =
  let r = o.Op.results.(0) in
  pr ctx ind "%s %s = %s;" (cty r.Value.ty) (vname ctx r)
    (f (operand_names ctx o))

(* Lane [l] of each vector operand; scalar operands as they are. *)
let lane_names ctx (o : Op.op) : string array =
  Array.map
    (fun (v : Value.t) ->
      match v.Value.ty with
      | Ty.Vec _ -> vname ctx v ^ "[l]"
      | _ -> vname ctx v)
    o.Op.operands

(* Element-wise op with no bit-exact C vector form (libm calls,
   ml_fmin/ml_fmax, fmod): a vector result is filled by a constant-bound
   lane loop over [f] of the operands' lanes. *)
let emit_lanewise ctx ind (o : Op.op) (f : string array -> string) : unit =
  let r = o.Op.results.(0) in
  match r.Value.ty with
  | Ty.Vec (w, _) ->
      decl ctx ind r;
      pr ctx ind "for (int l = 0; l < %d; l++) %s[l] = %s;" w (vname ctx r)
        (f (lane_names ctx o))
  | _ -> emit_ew ctx ind o f

let rec emit_op ctx ind (o : Op.op) : unit =
  emit_op_kind ctx ind o;
  mark_const ctx o

and emit_op_kind ctx ind (o : Op.op) : unit =
  let a = lazy (operand_names ctx o) in
  let an k = (Lazy.force a).(k) in
  let r () = o.Op.results.(0) in
  let vec_result () =
    match (r ()).Value.ty with Ty.Vec _ -> true | _ -> false
  in
  match o.Op.kind with
  (* constants are scalar (the verifier's rule); vector constants are
     broadcasts of them *)
  | Op.ConstF f -> emit_ew ctx ind o (fun _ -> float_lit f)
  | Op.ConstI n -> emit_ew ctx ind o (fun _ -> Printf.sprintf "INT64_C(%d)" n)
  | Op.ConstB b -> emit_ew ctx ind o (fun _ -> if b then "1" else "0")
  | Op.BinF ((Op.FMin | Op.FMax | Op.FRem) as k) ->
      emit_lanewise ctx ind o (fun x -> fbin_expr k x.(0) x.(1))
  | Op.BinF k -> emit_ew ctx ind o (fun x -> fbin_expr k x.(0) x.(1))
  | Op.NegF -> emit_ew ctx ind o (fun x -> Printf.sprintf "(-%s)" x.(0))
  | Op.BinI k -> emit_ew ctx ind o (fun x -> ibin_expr k x.(0) x.(1))
  | Op.BinB k -> emit_ew ctx ind o (fun x -> bbin_expr k x.(0) x.(1))
  | Op.NotB ->
      let op = if vec_result () then "~" else "!" in
      emit_ew ctx ind o (fun x -> Printf.sprintf "(%s%s)" op x.(0))
  | Op.CmpF c | Op.CmpI c ->
      emit_ew ctx ind o (fun x ->
          Printf.sprintf "(%s %s %s)" x.(0) (cmp_op c) x.(1))
  | Op.Select -> (
      match (r ()).Value.ty with
      | Ty.Vec (w, Ty.F64) ->
          emit_ew ctx ind o (fun x ->
              Printf.sprintf "(vd%d)(((vl%d)%s & %s) | ((vl%d)%s & ~%s))" w w
                x.(1) x.(0) w x.(2) x.(0))
      | Ty.Vec _ ->
          emit_ew ctx ind o (fun x ->
              Printf.sprintf "((%s & %s) | (%s & ~%s))" x.(1) x.(0) x.(2) x.(0))
      | _ ->
          emit_ew ctx ind o (fun x ->
              Printf.sprintf "(%s ? %s : %s)" x.(0) x.(1) x.(2)))
  | Op.SIToFP | Op.FPToSI ->
      (* C casts and __builtin_convertvector both truncate toward zero,
         as OCaml int_of_float does *)
      let t = cty (r ()).Value.ty in
      if vec_result () then
        emit_ew ctx ind o (fun x ->
            Printf.sprintf "__builtin_convertvector(%s, %s)" x.(0) t)
      else emit_ew ctx ind o (fun x -> Printf.sprintf "(%s)%s" t x.(0))
  | Op.Math m when libm_folds m && all_operands_pconst ctx o ->
      (* The C compiler can prove every argument constant — outright, or
         along one arm of a select it is free to split — and would fold
         the call with its own correctly-rounded library (MPFR),
         diverging by 1 ULP from the glibc call the OCaml engines make
         at run time.  Route the first argument through a volatile
         temporary so the call survives to run time.  Post-pipeline IR
         carries no fully-constant such ops (the constant folder already
         ate them with the host libm) — the scalar folder misses
         constant *splats* and constant select arms though, so those
         need this. *)
      let r = r () in
      let g = vname ctx r ^ "_cg" in
      let guard x = Array.mapi (fun i e -> if i = 0 then g else e) x in
      (match r.Value.ty with
      | Ty.Vec (w, _) ->
          decl ctx ind r;
          let elems = lane_names ctx o in
          pr ctx ind
            "for (int l = 0; l < %d; l++) { volatile double %s = %s; %s[l] \
             = %s; }"
            w g elems.(0) (vname ctx r)
            (math_expr m (guard elems))
      | t ->
          let x = Lazy.force a in
          pr ctx ind "volatile double %s = %s;" g x.(0);
          pr ctx ind "%s %s = %s;" (scalar_cty t) (vname ctx r)
            (math_expr m (guard x)))
  | Op.Math (("square" | "cube") as m) -> emit_ew ctx ind o (math_expr m)
  | Op.Math m -> emit_lanewise ctx ind o (math_expr m)
  | Op.Broadcast ->
      (* a scalar i1 is 0/1, a mask lane 0/-1 *)
      let w, s =
        match (r ()).Value.ty with
        | Ty.Vec (w, Ty.I1) -> (w, Printf.sprintf "-(int64_t)%s" (an 0))
        | t -> (Ty.width t, an 0)
      in
      emit_ew ctx ind o (fun _ -> braces (List.init w (fun _ -> s)))
  | Op.VecExtract lane ->
      let r = r () in
      pr ctx ind "%s %s = %s;"
        (scalar_cty r.Value.ty)
        (vname ctx r)
        (match r.Value.ty with
        | Ty.I1 -> Printf.sprintf "(%s[%d] != 0)" (an 0) lane
        | _ -> Printf.sprintf "%s[%d]" (an 0) lane)
  | Op.VecLoad ->
      (* memcpy: the memref offset carries no alignment guarantee *)
      decl ctx ind (r ());
      let v = vname ctx (r ()) in
      pr ctx ind "__builtin_memcpy(&%s, %s + %s, sizeof %s);" v (an 0) (an 1) v
  | Op.VecStore ->
      pr ctx ind "__builtin_memcpy(%s + %s, &%s, sizeof %s);" (an 1) (an 2)
        (an 0) (an 0)
  | Op.Gather ->
      let r = r () in
      decl ctx ind r;
      pr ctx ind "for (int l = 0; l < %d; l++) %s[l] = %s[%s[l]];"
        (Ty.width r.Value.ty) (vname ctx r) (an 0) (an 1)
  | Op.Scatter ->
      let w = Ty.width o.Op.operands.(0).Value.ty in
      pr ctx ind "for (int l = 0; l < %d; l++) %s[%s[l]] = %s[l];" w (an 1)
        (an 2) (an 0)
  | Op.Iota w -> emit_ew ctx ind o (fun _ -> braces (List.init w string_of_int))
  | Op.Alloc -> unsupported "memref.alloc has no C lowering"
  | Op.MemLoad ->
      let r = o.Op.results.(0) in
      pr ctx ind "double %s = %s[%s];" (vname ctx r) (an 0) (an 1)
  | Op.MemStore -> pr ctx ind "%s[%s] = %s;" (an 1) (an 2) (an 0)
  | Op.For _ ->
      let lb = an 0 and ub = an 1 and step = an 2 in
      let inits = Array.sub o.Op.operands 3 (Array.length o.Op.operands - 3) in
      let body = o.Op.regions.(0) in
      let iv, iters =
        match body.Op.r_args with
        | iv :: rest -> (iv, Array.of_list rest)
        | [] -> unsupported "scf.for region without induction variable"
      in
      (* results double as the loop-carried accumulators; iter args get
         their own storage so a yield can read old values safely *)
      Array.iteri
        (fun k (res : Value.t) ->
          decl ctx ind res;
          assign ctx ind res (vname ctx inits.(k)))
        o.Op.results;
      let ivn = vname ctx iv in
      pr ctx ind "for (int64_t %s = %s; %s < %s; %s += %s) {" ivn lb ivn ub ivn
        step;
      Array.iteri
        (fun k (arg : Value.t) ->
          decl ctx (ind + 1) arg;
          assign ctx (ind + 1) arg (vname ctx o.Op.results.(k)))
        iters;
      emit_region ctx (ind + 1) body ~on_yield:(fun ys ->
          Array.iteri
            (fun k (y : Value.t) ->
              assign ctx (ind + 1) o.Op.results.(k) (vname ctx y))
            ys);
      pr ctx ind "}"
  | Op.If ->
      let cond = an 0 in
      Array.iter (decl ctx ind) o.Op.results;
      let arm k =
        emit_region ctx (ind + 1)
          o.Op.regions.(k)
          ~on_yield:(fun ys ->
            Array.iteri
              (fun i (y : Value.t) ->
                assign ctx (ind + 1) o.Op.results.(i) (vname ctx y))
              ys)
      in
      pr ctx ind "if (%s) {" cond;
      arm 0;
      if
        Array.length o.Op.regions > 1
        && (o.Op.regions.(1).Op.r_ops <> [] || Array.length o.Op.results > 0)
      then (
        pr ctx ind "} else {";
        arm 1);
      pr ctx ind "}"
  | Op.Yield -> unsupported "stray scf.yield outside a structured op"
  | Op.Return -> unsupported "nested func.return"
  | Op.Call callee ->
      if Array.length o.Op.results > 0 then
        unsupported "call to %s with results" callee;
      if Hashtbl.mem ctx.locals callee then
        pr ctx ind "%s(%s);" (local_fn callee)
          (String.concat ", " (Array.to_list (Lazy.force a)))
      else emit_extern_call ctx ind callee o

and emit_region ctx ind (r : Op.region) ~(on_yield : Value.t array -> unit) :
    unit =
  List.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Yield -> on_yield o.Op.operands
      | _ -> emit_op ctx ind o)
    r.Op.r_ops

and emit_extern_call ctx ind (callee : string) (o : Op.op) : unit =
  match callee with
  | "lut_interp" | "lut_interp_vec" | "lut_interp_cubic" | "lut_interp_cubic_vec"
    ->
      (* (table, row, x, lo, step, rows, cols); dispatch scalar/vector on
         the lookup operand's actual shape *)
      let a = operand_names ctx o in
      let cubic = callee = "lut_interp_cubic" || callee = "lut_interp_cubic_vec" in
      (match o.Op.operands.(2).Value.ty with
      | Ty.Vec (w, Ty.F64) ->
          pr ctx ind "%s(%s, %s, (const double *)&%s, %d, %s, %s, %s, %s);"
            (if cubic then "lut_cubic_vec" else "lut_linear_vec")
            a.(0) a.(1) a.(2) w a.(3) a.(4) a.(5) a.(6)
      | Ty.F64 ->
          pr ctx ind "%s(%s, %s, %s, %s, %s, %s, %s);"
            (if cubic then "lut_cubic" else "lut_linear")
            a.(0) a.(1) a.(2) a.(3) a.(4) a.(5) a.(6)
      | t -> unsupported "%s lookup operand of type %s" callee (Ty.to_string t))
  | _ -> unsupported "extern %s has no C lowering" callee

(* ------------------------------------------------------------------ *)
(* Prelude: OCaml Float.min/max semantics + Runtime.Lut transcription  *)
(* ------------------------------------------------------------------ *)

let minmax_helpers =
  {|/* OCaml Float.min / Float.max semantics (NaN-propagating, -0. < +0.);
   deliberately NOT C fmin/fmax, which return the non-NaN argument. */
static inline double ml_fmin(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return (y != y) ? y : x;
  return (x != x) ? x : y;
}
static inline double ml_fmax(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return (x != x) ? x : y;
  return (y != y) ? y : x;
}
|}

(* Operation-for-operation transcription of Runtime.Lut.interp_row /
   interp_row_vec (row-major table, vector row buffer column-major by
   lane) and the Catmull-Rom variants.  Index/fraction clamping and the
   evaluation order of the spline polynomial match the OCaml source
   exactly so results are bitwise identical. *)
let lut_linear_helpers =
  {|static void lut_linear(const double *restrict tab, double *restrict row,
                       double x, double lo, double step,
                       int64_t rows, int64_t cols) {
  double pos = (x - lo) / step;
  int64_t idx;
  double frac;
  if (pos <= 0.0) { idx = 0; frac = 0.0; }
  else if (pos >= (double)(rows - 1)) { idx = rows - 2; frac = 1.0; }
  else { idx = (int64_t)floor(pos); frac = pos - (double)idx; }
  const double *r0 = tab + idx * cols;
  const double *r1 = r0 + cols;
  for (int64_t c = 0; c < cols; c++)
    row[c] = r0[c] + frac * (r1[c] - r0[c]);
}

static void lut_linear_vec(const double *restrict tab, double *restrict row,
                           const double *restrict xs, int w,
                           double lo, double step,
                           int64_t rows, int64_t cols) {
  for (int l = 0; l < w; l++) {
    double pos = (xs[l] - lo) / step;
    int64_t idx;
    double frac;
    if (pos <= 0.0) { idx = 0; frac = 0.0; }
    else if (pos >= (double)(rows - 1)) { idx = rows - 2; frac = 1.0; }
    else { idx = (int64_t)floor(pos); frac = pos - (double)idx; }
    const double *r0 = tab + idx * cols;
    const double *r1 = r0 + cols;
    for (int64_t c = 0; c < cols; c++)
      row[c * w + l] = r0[c] + frac * (r1[c] - r0[c]);
  }
}
|}

let lut_cubic_helpers =
  {|static inline void lut_locate_cubic(double pos, int64_t rows,
                                    int64_t *idx, double *u) {
  if (pos <= 1.0) { *idx = 1; *u = ml_fmax(-1.0, pos - 1.0); }
  else if (pos >= (double)(rows - 3)) {
    *idx = rows - 3;
    *u = ml_fmin(2.0, pos - (double)(rows - 3));
  } else {
    *idx = (int64_t)floor(pos);
    *u = pos - (double)*idx;
  }
}

static inline double catmull_rom(double p0, double p1, double p2, double p3,
                                 double u) {
  double a = (-0.5 * p0) + (1.5 * p1) - (1.5 * p2) + (0.5 * p3);
  double b = p0 - (2.5 * p1) + (2.0 * p2) - (0.5 * p3);
  double c = (-0.5 * p0) + (0.5 * p2);
  return p1 + (u * (c + (u * (b + (u * a)))));
}

static void lut_cubic(const double *restrict tab, double *restrict row,
                      double x, double lo, double step,
                      int64_t rows, int64_t cols) {
  if (rows < 4) { lut_linear(tab, row, x, lo, step, rows, cols); return; }
  int64_t idx;
  double u;
  lut_locate_cubic((x - lo) / step, rows, &idx, &u);
  const double *q0 = tab + (idx - 1) * cols;
  const double *q1 = q0 + cols;
  const double *q2 = q1 + cols;
  const double *q3 = q2 + cols;
  for (int64_t c = 0; c < cols; c++)
    row[c] = catmull_rom(q0[c], q1[c], q2[c], q3[c], u);
}

static void lut_cubic_vec(const double *restrict tab, double *restrict row,
                          const double *restrict xs, int w,
                          double lo, double step,
                          int64_t rows, int64_t cols) {
  if (rows < 4) {
    lut_linear_vec(tab, row, xs, w, lo, step, rows, cols);
    return;
  }
  for (int l = 0; l < w; l++) {
    int64_t idx;
    double u;
    lut_locate_cubic((xs[l] - lo) / step, rows, &idx, &u);
    const double *q0 = tab + (idx - 1) * cols;
    const double *q1 = q0 + cols;
    const double *q2 = q1 + cols;
    const double *q3 = q2 + cols;
    for (int64_t c = 0; c < cols; c++)
      row[c * w + l] = catmull_rom(q0[c], q1[c], q2[c], q3[c], u);
  }
}
|}

(* ------------------------------------------------------------------ *)
(* Functions and wrappers                                              *)
(* ------------------------------------------------------------------ *)

let natural_sig ctx (f : Func.func) : string =
  if f.Func.f_results <> [] then
    unsupported "function %s returns values" f.Func.f_name;
  let params =
    List.map
      (fun (p : Value.t) ->
        match p.Value.ty with
        | Ty.Memref -> Printf.sprintf "double *restrict %s" (vname ctx p)
        | (Ty.F64 | Ty.I64 | Ty.I1) as t ->
            Printf.sprintf "%s %s" (scalar_cty t) (vname ctx p)
        | Ty.Vec _ ->
            unsupported "function %s has a vector-typed parameter"
              f.Func.f_name)
      f.Func.f_params
  in
  Printf.sprintf "static void %s(%s)" (local_fn f.Func.f_name)
    (match params with [] -> "void" | ps -> String.concat ", " ps)

let emit_func ctx (f : Func.func) : unit =
  pr ctx 0 "%s {" (natural_sig ctx f);
  List.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Return ->
          if Array.length o.Op.operands > 0 then
            unsupported "func.return with values in %s" f.Func.f_name
      | Op.Yield -> unsupported "scf.yield at function scope"
      | _ -> emit_op ctx 1 o)
    f.Func.f_body.Op.r_ops;
  pr ctx 0 "}";
  pr ctx 0 ""

(* Packed-ABI wrapper: scalar int-like args from [ia], float args from
   [fa], memrefs from [ma], each class in declaration order.  Must agree
   with Exec.Native.bind's marshalling. *)
let emit_wrapper ctx (f : Func.func) : unit =
  pr ctx 0 "void %s(const int64_t *ia, const double *fa, double *const *ma) {"
    (symbol f.Func.f_name);
  let ki = ref 0 and kf = ref 0 and km = ref 0 in
  let args =
    List.map
      (fun (p : Value.t) ->
        let take k = let i = !k in incr k; i in
        match p.Value.ty with
        | Ty.I64 -> Printf.sprintf "ia[%d]" (take ki)
        | Ty.I1 -> Printf.sprintf "(int)ia[%d]" (take ki)
        | Ty.F64 -> Printf.sprintf "fa[%d]" (take kf)
        | Ty.Memref -> Printf.sprintf "ma[%d]" (take km)
        | Ty.Vec _ ->
            unsupported "function %s has a vector-typed parameter"
              f.Func.f_name)
      f.Func.f_params
  in
  if !ki = 0 then pr ctx 1 "(void)ia;";
  if !kf = 0 then pr ctx 1 "(void)fa;";
  if !km = 0 then pr ctx 1 "(void)ma;";
  pr ctx 1 "%s(%s);" (local_fn f.Func.f_name) (String.concat ", " args);
  pr ctx 0 "}";
  pr ctx 0 ""

let uses_luts (m : Func.modl) : bool * bool =
  let linear = ref false and cubic = ref false in
  List.iter
    (fun (f : Func.func) ->
      Op.iter_region
        (fun o ->
          match o.Op.kind with
          | Op.Call ("lut_interp" | "lut_interp_vec") -> linear := true
          | Op.Call ("lut_interp_cubic" | "lut_interp_cubic_vec") ->
              cubic := true
          | _ -> ())
        f.Func.f_body)
    m.Func.m_funcs;
  (!linear || !cubic, !cubic)

(* One vdN/vlN typedef pair per vector width in the module.  GCC vector
   sizes must be powers of two, so other widths have no lowering. *)
let typedefs ctx (m : Func.modl) : unit =
  let widths = ref [] in
  let note (v : Value.t) =
    match v.Value.ty with
    | Ty.Vec (w, _) ->
        if w land (w - 1) <> 0 then
          unsupported "vector width %d is not a power of two" w;
        if not (List.mem w !widths) then widths := w :: !widths
    | _ -> ()
  in
  (* region arguments carry the types of their op's results *)
  List.iter
    (fun (f : Func.func) ->
      Op.iter_region (fun o -> Array.iter note o.Op.results) f.Func.f_body)
    m.Func.m_funcs;
  List.iter
    (fun w ->
      let bytes = 8 * w in
      pr ctx 0 "typedef double vd%d __attribute__((vector_size(%d)));" w bytes;
      pr ctx 0 "typedef int64_t vl%d __attribute__((vector_size(%d)));" w bytes)
    (List.sort compare !widths);
  if !widths <> [] then pr ctx 0 ""

let emit_module ?(banner = []) (m : Func.modl) : string =
  let ctx =
    {
      buf = Buffer.create 8192;
      names = Hashtbl.create 256;
      locals = Hashtbl.create 8;
      consts = Hashtbl.create 64;
      pconsts = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (f : Func.func) -> Hashtbl.replace ctx.locals f.Func.f_name ())
    m.Func.m_funcs;
  pr ctx 0 "/* Generated by the limpetmlir C backend — do not edit. */";
  List.iter
    (fun line ->
      (* a stray comment terminator in a banner line must not break the
         translation unit *)
      let safe =
        String.init (String.length line) (fun i ->
            if line.[i] = '*' && i + 1 < String.length line && line.[i + 1] = '/'
            then '+'
            else line.[i])
      in
      pr ctx 0 "/* %s */" safe)
    banner;
  pr ctx 0 "";
  pr ctx 0 "#include <stdint.h>";
  pr ctx 0 "#include <math.h>";
  pr ctx 0 "";
  typedefs ctx m;
  Buffer.add_string ctx.buf minmax_helpers;
  Buffer.add_char ctx.buf '\n';
  let any_lut, cubic = uses_luts m in
  if any_lut then (
    Buffer.add_string ctx.buf lut_linear_helpers;
    Buffer.add_char ctx.buf '\n');
  if cubic then (
    Buffer.add_string ctx.buf lut_cubic_helpers;
    Buffer.add_char ctx.buf '\n');
  (* prototypes first so local calls resolve in any order *)
  List.iter (fun f -> pr ctx 0 "%s;" (natural_sig ctx f)) m.Func.m_funcs;
  pr ctx 0 "";
  List.iter (emit_func ctx) m.Func.m_funcs;
  List.iter (emit_wrapper ctx) m.Func.m_funcs;
  Buffer.contents ctx.buf
