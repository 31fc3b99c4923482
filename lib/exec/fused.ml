open Ir
(** Fused threaded-code execution engine.

    The closure engine ({!Engine}) pays one indirect closure call per IR op
    per execution — exactly the per-op dispatch overhead the paper's
    limpetC++ baseline suffers from.  This engine removes it for
    straight-line code: after slot allocation, every region body is
    flattened into a flat {!instr} array executed by one tight dispatch
    loop (an OCaml jump-table [match] instead of a closure call per op),
    and a peephole superinstruction pass over the flat form fuses the
    dominant op pairs of ionic kernels:

    - [arith.mulf] + [arith.addf] whose product is single-use → one fused
      multiply-add instruction (numerically identical: both roundings are
      kept, the fusion only removes dispatch and the intermediate register
      round-trip);
    - [memref.load] + arith op + [memref.store] chains → one
      load-op-store instruction;
    - [vector.load] + vector arith + [vector.store] triples → one
      load-op-store instruction over the whole width;
    - [math.exp]/[math.expm1]-style calls feeding a single arith consumer
      → one math-op instruction.

    Structured ops ([scf.for], [scf.if]), calls and anything else not
    specialized fall back to the closure path through
    {!Engine.compile_op}, with nested regions compiled by this engine, so
    the hot straight-line loop bodies of generated kernels always take the
    flat path.  Register-file accesses use unchecked reads/writes (slot
    indices are assigned by the compiler and always in bounds); memref
    accesses keep their bounds checks, with contiguous vector accesses
    checked once per vector rather than once per lane. *)

module E = Engine

let fail = E.fail

(* Flat threaded-code instructions.  Integer fields are register-file slot
   indices resolved at compile time; [w] fields are vector widths.
   Function-valued fields hold static math/arith closures (one indirect
   call, amortized over the work they do). *)
type instr =
  (* scalar f64 *)
  | CstF of int * float  (** d, value *)
  | Add of int * int * int  (** d <- a +. c *)
  | Sub of int * int * int
  | Mul of int * int * int
  | Div of int * int * int
  | Fma of int * int * int * int  (** d <- a *. b +. c (two roundings) *)
  | Fms of int * int * int * int  (** d <- a *. b -. c *)
  | Fsm of int * int * int * int  (** d <- c -. a *. b *)
  | Add3 of int * int * int * int  (** d <- (a +. b) +. c *)
  | Mul3 of int * int * int * int  (** d <- (a *. b) *. c *)
  | SubMul of int * int * int * int  (** d <- (a -. b) *. c *)
  | AddMul of int * int * int * int  (** d <- (a +. b) *. c *)
  | SubAdd of int * int * int * int  (** d <- (a -. b) +. c *)
  | Neg of int * int
  | FBinG of int * int * int * (float -> float -> float)
      (** generic float binop: min/max/rem *)
  | M1 of int * int * (float -> float)  (** d <- g a *)
  | M2 of int * int * int * (float -> float -> float)
  | M1B of int * int * int * (float -> float) * (float -> float -> float)
      (** d <- h (g a) c; operand order folded into h *)
  | Cmp of int * int * int * (float -> float -> bool)  (** b.(d) *)
  | Sel of int * int * int * int  (** d <- if b.(c) then x else y *)
  | CmpSel of int * int * int * (float -> float -> bool) * int * int
      (** d <- if g a c then x else y *)
  | SiToF of int * int
  | Load of int * int * int  (** f.(d) <- m.(mm).(i.(ix)) *)
  | Store of int * int * int  (** m.(mm).(i.(ix)) <- f.(a) *)
  | Los of int * int * int * (float -> float -> float) * int * int
      (** m1, i1, c, h, m2, i2: store (h (load m1 i1) c) m2 i2 *)
  (* scalar i64 *)
  | CstI of int * int
  | AddI of int * int * int
  | SubI of int * int * int
  | MulI of int * int * int
  | DivI of int * int * int
  | RemI of int * int * int
  | MadI of int * int * int * int  (** d <- a * b + c (addressing) *)
  (* vector f64 *)
  | VAdd of int * int * int * int  (** d, a, c, w *)
  | VSub of int * int * int * int
  | VMul of int * int * int * int
  | VDiv of int * int * int * int
  | VFma of int * int * int * int * int  (** d, a, b, c, w *)
  | VFms of int * int * int * int * int
  | VFsm of int * int * int * int * int
  | VAdd3 of int * int * int * int * int
  | VMul3 of int * int * int * int * int
  | VSubMul of int * int * int * int * int
  | VAddMul of int * int * int * int * int
  | VSubAdd of int * int * int * int * int
  | VNeg of int * int * int
  | VBinG of int * int * int * int * (float -> float -> float)
  | VM1 of int * int * int * (float -> float)  (** d, a, w, g *)
  | VM2 of int * int * int * int * (float -> float -> float)
  | VM1B of int * int * int * int * (float -> float) * (float -> float -> float)
  | VCmp of int * int * int * int * (float -> float -> bool)  (** vb dest *)
  | VSel of int * int * int * int * int  (** d, c(vb), x, y, w *)
  | VCmpSel of int * int * int * int * int * int * (float -> float -> bool)
      (** d, a, c, x, y, w, g *)
  | Bcast of int * int * int  (** vf.(d) <- splat f.(a), w *)
  | Iota of int * int  (** vi.(d) <- [0..w-1] *)
  | VLoad of int * int * int * int  (** d, mm, ix, w — contiguous *)
  | VStore of int * int * int * int  (** a, mm, ix, w *)
  | VLos of int * int * int * (float -> float -> float) * int * int * int
      (** m1, i1, c(vf), h, m2, i2, w *)
  | VGather of int * int * int * int  (** d, mm, ixs(vi), w *)
  | VScatter of int * int * int * int  (** a, mm, ixs(vi), w *)
  (* everything else: closure fallback *)
  | Thunk of (unit -> unit)

let oob () = invalid_arg "index out of bounds"

(* The tight dispatch loop: one [match] per instruction, no closure call
   for specialized ops.  Register-file accesses are unchecked (indices are
   compiler-assigned); memref accesses are checked, vectors once per
   vector. *)
let exec_code (code : instr array) (e : E.env) : unit -> unit =
  let f = e.E.f
  and i = e.E.i
  and b = e.E.b
  and vf = e.E.vf
  and vi = e.E.vi
  and vb = e.E.vb
  and m = e.E.m in
  let n = Array.length code in
  fun () ->
    for pc = 0 to n - 1 do
      match Array.unsafe_get code pc with
      | CstF (d, x) -> Array.unsafe_set f d x
      | Add (d, a, c) ->
          Array.unsafe_set f d (Array.unsafe_get f a +. Array.unsafe_get f c)
      | Sub (d, a, c) ->
          Array.unsafe_set f d (Array.unsafe_get f a -. Array.unsafe_get f c)
      | Mul (d, a, c) ->
          Array.unsafe_set f d (Array.unsafe_get f a *. Array.unsafe_get f c)
      | Div (d, a, c) ->
          Array.unsafe_set f d (Array.unsafe_get f a /. Array.unsafe_get f c)
      | Fma (d, a, b_, c) ->
          Array.unsafe_set f d
            ((Array.unsafe_get f a *. Array.unsafe_get f b_)
            +. Array.unsafe_get f c)
      | Fms (d, a, b_, c) ->
          Array.unsafe_set f d
            ((Array.unsafe_get f a *. Array.unsafe_get f b_)
            -. Array.unsafe_get f c)
      | Fsm (d, a, b_, c) ->
          Array.unsafe_set f d
            (Array.unsafe_get f c
            -. (Array.unsafe_get f a *. Array.unsafe_get f b_))
      | Add3 (d, a, b_, c) ->
          Array.unsafe_set f d
            (Array.unsafe_get f a +. Array.unsafe_get f b_
            +. Array.unsafe_get f c)
      | Mul3 (d, a, b_, c) ->
          Array.unsafe_set f d
            (Array.unsafe_get f a *. Array.unsafe_get f b_
            *. Array.unsafe_get f c)
      | SubMul (d, a, b_, c) ->
          Array.unsafe_set f d
            ((Array.unsafe_get f a -. Array.unsafe_get f b_)
            *. Array.unsafe_get f c)
      | AddMul (d, a, b_, c) ->
          Array.unsafe_set f d
            ((Array.unsafe_get f a +. Array.unsafe_get f b_)
            *. Array.unsafe_get f c)
      | SubAdd (d, a, b_, c) ->
          Array.unsafe_set f d
            (Array.unsafe_get f a -. Array.unsafe_get f b_
            +. Array.unsafe_get f c)
      | Neg (d, a) -> Array.unsafe_set f d (-.Array.unsafe_get f a)
      | FBinG (d, a, c, h) ->
          Array.unsafe_set f d (h (Array.unsafe_get f a) (Array.unsafe_get f c))
      | M1 (d, a, g) -> Array.unsafe_set f d (g (Array.unsafe_get f a))
      | M2 (d, a, c, g) ->
          Array.unsafe_set f d (g (Array.unsafe_get f a) (Array.unsafe_get f c))
      | M1B (d, a, c, g, h) ->
          Array.unsafe_set f d
            (h (g (Array.unsafe_get f a)) (Array.unsafe_get f c))
      | Cmp (d, a, c, g) ->
          Array.unsafe_set b d (g (Array.unsafe_get f a) (Array.unsafe_get f c))
      | Sel (d, c, x, y) ->
          Array.unsafe_set f d
            (if Array.unsafe_get b c then Array.unsafe_get f x
             else Array.unsafe_get f y)
      | CmpSel (d, a, c, g, x, y) ->
          Array.unsafe_set f d
            (if g (Array.unsafe_get f a) (Array.unsafe_get f c) then
               Array.unsafe_get f x
             else Array.unsafe_get f y)
      | SiToF (d, a) -> Array.unsafe_set f d (float_of_int (Array.unsafe_get i a))
      | Load (d, mm, ix) ->
          Array.unsafe_set f d
            (Float.Array.get (Array.unsafe_get m mm) (Array.unsafe_get i ix))
      | Store (a, mm, ix) ->
          Float.Array.set (Array.unsafe_get m mm) (Array.unsafe_get i ix)
            (Array.unsafe_get f a)
      | Los (m1, i1, c, h, m2, i2) ->
          let x =
            Float.Array.get (Array.unsafe_get m m1) (Array.unsafe_get i i1)
          in
          Float.Array.set (Array.unsafe_get m m2) (Array.unsafe_get i i2)
            (h x (Array.unsafe_get f c))
      | CstI (d, x) -> Array.unsafe_set i d x
      | AddI (d, a, c) ->
          Array.unsafe_set i d (Array.unsafe_get i a + Array.unsafe_get i c)
      | SubI (d, a, c) ->
          Array.unsafe_set i d (Array.unsafe_get i a - Array.unsafe_get i c)
      | MulI (d, a, c) ->
          Array.unsafe_set i d (Array.unsafe_get i a * Array.unsafe_get i c)
      | DivI (d, a, c) ->
          Array.unsafe_set i d (Array.unsafe_get i a / Array.unsafe_get i c)
      | RemI (d, a, c) ->
          Array.unsafe_set i d (Array.unsafe_get i a mod Array.unsafe_get i c)
      | MadI (d, a, b_, c) ->
          Array.unsafe_set i d
            ((Array.unsafe_get i a * Array.unsafe_get i b_)
            + Array.unsafe_get i c)
      | VAdd (d, a, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (Float.Array.unsafe_get x l +. Float.Array.unsafe_get y l)
          done
      | VSub (d, a, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (Float.Array.unsafe_get x l -. Float.Array.unsafe_get y l)
          done
      | VMul (d, a, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (Float.Array.unsafe_get x l *. Float.Array.unsafe_get y l)
          done
      | VDiv (d, a, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (Float.Array.unsafe_get x l /. Float.Array.unsafe_get y l)
          done
      | VFma (d, a, b_, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf b_
          and u = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              ((Float.Array.unsafe_get x l *. Float.Array.unsafe_get y l)
              +. Float.Array.unsafe_get u l)
          done
      | VFms (d, a, b_, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf b_
          and u = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              ((Float.Array.unsafe_get x l *. Float.Array.unsafe_get y l)
              -. Float.Array.unsafe_get u l)
          done
      | VFsm (d, a, b_, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf b_
          and u = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (Float.Array.unsafe_get u l
              -. (Float.Array.unsafe_get x l *. Float.Array.unsafe_get y l))
          done
      | VAdd3 (d, a, b_, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf b_
          and u = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (Float.Array.unsafe_get x l +. Float.Array.unsafe_get y l
              +. Float.Array.unsafe_get u l)
          done
      | VMul3 (d, a, b_, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf b_
          and u = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (Float.Array.unsafe_get x l *. Float.Array.unsafe_get y l
              *. Float.Array.unsafe_get u l)
          done
      | VSubMul (d, a, b_, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf b_
          and u = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              ((Float.Array.unsafe_get x l -. Float.Array.unsafe_get y l)
              *. Float.Array.unsafe_get u l)
          done
      | VAddMul (d, a, b_, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf b_
          and u = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              ((Float.Array.unsafe_get x l +. Float.Array.unsafe_get y l)
              *. Float.Array.unsafe_get u l)
          done
      | VSubAdd (d, a, b_, c, w) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf b_
          and u = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (Float.Array.unsafe_get x l -. Float.Array.unsafe_get y l
              +. Float.Array.unsafe_get u l)
          done
      | VNeg (d, a, w) ->
          let x = Array.unsafe_get vf a and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l (-.Float.Array.unsafe_get x l)
          done
      | VBinG (d, a, c, w, h) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (h (Float.Array.unsafe_get x l) (Float.Array.unsafe_get y l))
          done
      | VM1 (d, a, w, g) ->
          let x = Array.unsafe_get vf a and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l (g (Float.Array.unsafe_get x l))
          done
      | VM2 (d, a, c, w, g) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (g (Float.Array.unsafe_get x l) (Float.Array.unsafe_get y l))
          done
      | VM1B (d, a, c, w, g, h) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf c
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (h (g (Float.Array.unsafe_get x l)) (Float.Array.unsafe_get y l))
          done
      | VCmp (d, a, c, w, g) ->
          let x = Array.unsafe_get vf a
          and y = Array.unsafe_get vf c
          and z = Array.unsafe_get vb d in
          for l = 0 to w - 1 do
            Array.unsafe_set z l
              (g (Float.Array.unsafe_get x l) (Float.Array.unsafe_get y l))
          done
      | VSel (d, c, x, y, w) ->
          let cc = Array.unsafe_get vb c
          and xx = Array.unsafe_get vf x
          and yy = Array.unsafe_get vf y
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (if Array.unsafe_get cc l then Float.Array.unsafe_get xx l
               else Float.Array.unsafe_get yy l)
          done
      | VCmpSel (d, a, c, x, y, w, g) ->
          let aa = Array.unsafe_get vf a
          and cc = Array.unsafe_get vf c
          and xx = Array.unsafe_get vf x
          and yy = Array.unsafe_get vf y
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (if g (Float.Array.unsafe_get aa l) (Float.Array.unsafe_get cc l)
               then Float.Array.unsafe_get xx l
               else Float.Array.unsafe_get yy l)
          done
      | Bcast (d, a, w) ->
          let x = Array.unsafe_get f a and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l x
          done
      | Iota (d, w) ->
          let z = Array.unsafe_get vi d in
          for l = 0 to w - 1 do
            Array.unsafe_set z l l
          done
      | VLoad (d, mm, ix, w) ->
          let buf = Array.unsafe_get m mm and base = Array.unsafe_get i ix in
          if base < 0 || base + w > Float.Array.length buf then oob ();
          let z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l (Float.Array.unsafe_get buf (base + l))
          done
      | VStore (a, mm, ix, w) ->
          let buf = Array.unsafe_get m mm and base = Array.unsafe_get i ix in
          if base < 0 || base + w > Float.Array.length buf then oob ();
          let x = Array.unsafe_get vf a in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set buf (base + l) (Float.Array.unsafe_get x l)
          done
      | VLos (m1, i1, c, h, m2, i2, w) ->
          let src = Array.unsafe_get m m1 and sbase = Array.unsafe_get i i1 in
          let dst = Array.unsafe_get m m2 and dbase = Array.unsafe_get i i2 in
          if sbase < 0 || sbase + w > Float.Array.length src then oob ();
          if dbase < 0 || dbase + w > Float.Array.length dst then oob ();
          let y = Array.unsafe_get vf c in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set dst (dbase + l)
              (h (Float.Array.unsafe_get src (sbase + l))
                 (Float.Array.unsafe_get y l))
          done
      | VGather (d, mm, ixs, w) ->
          let buf = Array.unsafe_get m mm
          and idx = Array.unsafe_get vi ixs
          and z = Array.unsafe_get vf d in
          for l = 0 to w - 1 do
            Float.Array.unsafe_set z l
              (Float.Array.get buf (Array.unsafe_get idx l))
          done
      | VScatter (a, mm, ixs, w) ->
          let buf = Array.unsafe_get m mm
          and idx = Array.unsafe_get vi ixs
          and x = Array.unsafe_get vf a in
          for l = 0 to w - 1 do
            Float.Array.set buf (Array.unsafe_get idx l)
              (Float.Array.unsafe_get x l)
          done
      | Thunk g -> g ()
    done

(* ------------------------------------------------------------------ *)
(* Instruction selection                                               *)
(* ------------------------------------------------------------------ *)

(* Use counts over the whole function: a fused-away intermediate must have
   exactly one consumer anywhere (including nested regions and yields). *)
let use_counts (fn : Func.func) : (int, int) Hashtbl.t =
  let h = Hashtbl.create 256 in
  let bump (v : Value.t) =
    Hashtbl.replace h v.id (1 + Option.value ~default:0 (Hashtbl.find_opt h v.id))
  in
  let rec walk (r : Op.region) =
    List.iter
      (fun (o : Op.op) ->
        Array.iter bump o.operands;
        Array.iter walk o.regions)
      r.Op.r_ops
  in
  walk fn.Func.f_body;
  h

let is_scalar_f (v : Value.t) = v.ty = Ty.F64
let is_vec_f (v : Value.t) = match v.ty with Ty.Vec (_, Ty.F64) -> true | _ -> false

(* Select one unfused instruction for an op, when a specialized encoding
   exists.  [None] means: fall back to the closure path. *)
let instr_of (c : E.fctx) (o : Op.op) : instr option =
  let op k = o.operands.(k) and res () = o.results.(0) in
  match o.kind with
  | Op.ConstF x -> Some (CstF (E.fslot c (res ()), x))
  | Op.ConstI x -> Some (CstI (E.islot c (res ()), x))
  | Op.BinF k when is_scalar_f (res ()) -> (
      let d = E.fslot c (res ()) and a = E.fslot c (op 0) and b = E.fslot c (op 1) in
      match k with
      | Op.FAdd -> Some (Add (d, a, b))
      | Op.FSub -> Some (Sub (d, a, b))
      | Op.FMul -> Some (Mul (d, a, b))
      | Op.FDiv -> Some (Div (d, a, b))
      | _ -> Some (FBinG (d, a, b, E.fbin_fn k)))
  | Op.BinF k when is_vec_f (res ()) -> (
      let d, w = E.vfslot c (res ()) in
      let a, _ = E.vfslot c (op 0) and b, _ = E.vfslot c (op 1) in
      match k with
      | Op.FAdd -> Some (VAdd (d, a, b, w))
      | Op.FSub -> Some (VSub (d, a, b, w))
      | Op.FMul -> Some (VMul (d, a, b, w))
      | Op.FDiv -> Some (VDiv (d, a, b, w))
      | _ -> Some (VBinG (d, a, b, w, E.fbin_fn k)))
  | Op.NegF when is_scalar_f (res ()) ->
      Some (Neg (E.fslot c (res ()), E.fslot c (op 0)))
  | Op.NegF when is_vec_f (res ()) ->
      let d, w = E.vfslot c (res ()) and a, _ = E.vfslot c (op 0) in
      Some (VNeg (d, a, w))
  | Op.BinI k when (res ()).ty = Ty.I64 -> (
      let d = E.islot c (res ()) and a = E.islot c (op 0) and b = E.islot c (op 1) in
      match k with
      | Op.IAdd -> Some (AddI (d, a, b))
      | Op.ISub -> Some (SubI (d, a, b))
      | Op.IMul -> Some (MulI (d, a, b))
      | Op.IDiv -> Some (DivI (d, a, b))
      | Op.IRem -> Some (RemI (d, a, b)))
  | Op.CmpF cc when is_scalar_f (op 0) ->
      Some (Cmp (E.bslot c (res ()), E.fslot c (op 0), E.fslot c (op 1), E.cmpf_fn cc))
  | Op.CmpF cc when is_vec_f (op 0) ->
      let a, w = E.vfslot c (op 0) in
      let x, _ = E.vfslot c (op 1) and d, _ = E.vbslot c (res ()) in
      Some (VCmp (d, a, x, w, E.cmpf_fn cc))
  | Op.Select when is_scalar_f (res ()) ->
      Some
        (Sel (E.fslot c (res ()), E.bslot c (op 0), E.fslot c (op 1), E.fslot c (op 2)))
  | Op.Select when is_vec_f (res ()) ->
      let d, w = E.vfslot c (res ()) in
      let cc, _ = E.vbslot c (op 0) in
      let x, _ = E.vfslot c (op 1) and y, _ = E.vfslot c (op 2) in
      Some (VSel (d, cc, x, y, w))
  | Op.SIToFP when is_scalar_f (res ()) ->
      Some (SiToF (E.fslot c (res ()), E.islot c (op 0)))
  | Op.Math name -> (
      match ((res ()).ty, E.unary_fn name, E.binary_fn name) with
      | Ty.F64, Some g, _ when Array.length o.operands = 1 ->
          Some (M1 (E.fslot c (res ()), E.fslot c (op 0), g))
      | Ty.F64, _, Some g when Array.length o.operands = 2 ->
          Some (M2 (E.fslot c (res ()), E.fslot c (op 0), E.fslot c (op 1), g))
      | Ty.Vec (_, Ty.F64), Some g, _ when Array.length o.operands = 1 ->
          let d, w = E.vfslot c (res ()) and a, _ = E.vfslot c (op 0) in
          Some (VM1 (d, a, w, g))
      | Ty.Vec (_, Ty.F64), _, Some g when Array.length o.operands = 2 ->
          let d, w = E.vfslot c (res ()) in
          let a, _ = E.vfslot c (op 0) and b, _ = E.vfslot c (op 1) in
          Some (VM2 (d, a, b, w, g))
      | _ -> None)
  | Op.Broadcast when is_vec_f (res ()) ->
      let d, w = E.vfslot c (res ()) in
      Some (Bcast (d, E.fslot c (op 0), w))
  | Op.Iota _ ->
      let d, w = E.vislot c (res ()) in
      Some (Iota (d, w))
  | Op.MemLoad ->
      let d = E.fslot c (res ()) and mm = E.mslot c (op 0)
      and ix = E.islot c (op 1) in
      Some (Load (d, mm, ix))
  | Op.MemStore ->
      let a = E.fslot c (op 0) and mm = E.mslot c (op 1)
      and ix = E.islot c (op 2) in
      Some (Store (a, mm, ix))
  | Op.VecLoad ->
      let d, w = E.vfslot c (res ()) in
      let mm = E.mslot c (op 0) and ix = E.islot c (op 1) in
      Some (VLoad (d, mm, ix, w))
  | Op.VecStore ->
      let a, w = E.vfslot c (op 0) in
      let mm = E.mslot c (op 1) and ix = E.islot c (op 2) in
      Some (VStore (a, mm, ix, w))
  | Op.Gather ->
      let d, _ = E.vfslot c (res ()) in
      let ixs, w = E.vislot c (op 1) in
      let mm = E.mslot c (op 0) in
      Some (VGather (d, mm, ixs, w))
  | Op.Scatter ->
      let a, w = E.vfslot c (op 0) in
      let ixs, _ = E.vislot c (op 2) in
      let mm = E.mslot c (op 1) in
      Some (VScatter (a, mm, ixs, w))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Peephole superinstruction fusion                                    *)
(* ------------------------------------------------------------------ *)

(* [h] with the fused value in the position [t] occupied in the consumer:
   [d <- h t other].  Flipping at selection time keeps one dispatch shape. *)
let consumer_fn (k : Op.fbin) (consumer : Op.op) (t : Value.t) :
    (float -> float -> float) * Value.t =
  let h = E.fbin_fn k in
  if consumer.Op.operands.(0).id = t.id then (h, consumer.Op.operands.(1))
  else ((fun x y -> h y x), consumer.Op.operands.(0))

let single_use (uc : (int, int) Hashtbl.t) (v : Value.t) : bool =
  Hashtbl.find_opt uc v.id = Some 1

(* One fused-result op: exactly one result, used exactly once. *)
let fusable_result (uc : (int, int) Hashtbl.t) (o : Op.op) : Value.t option =
  if Array.length o.results = 1 && single_use uc o.results.(0) then
    Some o.results.(0)
  else None

(* Producer/consumer superinstruction for a pure, single-use producer [p]
   whose unique consumer is [o].  In SSA straight-line code a pure
   single-use producer can always be sunk to its consumer (its operands
   are defined before it, nothing in between can redefine them, and no
   other op observes its result), so fusion does not require adjacency.
   Only returns encodings whose fused form stays as cheap as the unfused
   pair (direct dispatch arms, or a producer that already paid an
   indirect math call). *)
let pair_instr (c : E.fctx) (p : Op.op) (o : Op.op) : instr option =
  if Array.length p.Op.results <> 1 then None
  else
    let t = p.Op.results.(0) in
    let uses_t k = o.Op.operands.(k).id = t.id in
    match (p.Op.kind, o.Op.kind) with
    (* float arith pairs: the fused form keeps both rounding steps, and
       commuted consumers (t on either side of an add or mul) are
       value-identical by IEEE commutativity, so one encoding per combo
       suffices — except subtraction consumers, which need both operand
       orders *)
    | Op.BinF kp, Op.BinF ko when uses_t 0 || uses_t 1 -> (
        let combo =
          match (kp, ko, uses_t 0) with
          | Op.FMul, Op.FAdd, _ -> Some `Fma
          | Op.FMul, Op.FSub, true -> Some `Fms  (* t -. other *)
          | Op.FMul, Op.FSub, false -> Some `Fsm  (* other -. t *)
          | Op.FMul, Op.FMul, _ -> Some `Mul3
          | Op.FAdd, Op.FAdd, _ -> Some `Add3
          | Op.FAdd, Op.FMul, _ -> Some `AddMul
          | Op.FSub, Op.FAdd, _ -> Some `SubAdd
          | Op.FSub, Op.FMul, _ -> Some `SubMul
          | _ -> None
        in
        match combo with
        | None -> None
        | Some tag ->
            let a = p.Op.operands.(0) and b = p.Op.operands.(1) in
            let other =
              if uses_t 0 then o.Op.operands.(1) else o.Op.operands.(0)
            in
            if is_scalar_f t then
              let d = E.fslot c o.Op.results.(0)
              and pa = E.fslot c a
              and pb = E.fslot c b
              and oc = E.fslot c other in
              Some
                (match tag with
                | `Fma -> Fma (d, pa, pb, oc)
                | `Fms -> Fms (d, pa, pb, oc)
                | `Fsm -> Fsm (d, pa, pb, oc)
                | `Mul3 -> Mul3 (d, pa, pb, oc)
                | `Add3 -> Add3 (d, pa, pb, oc)
                | `AddMul -> AddMul (d, pa, pb, oc)
                | `SubAdd -> SubAdd (d, pa, pb, oc)
                | `SubMul -> SubMul (d, pa, pb, oc))
            else if is_vec_f t then
              let d, w = E.vfslot c o.Op.results.(0) in
              let pa, _ = E.vfslot c a in
              let pb, _ = E.vfslot c b in
              let oc, _ = E.vfslot c other in
              Some
                (match tag with
                | `Fma -> VFma (d, pa, pb, oc, w)
                | `Fms -> VFms (d, pa, pb, oc, w)
                | `Fsm -> VFsm (d, pa, pb, oc, w)
                | `Mul3 -> VMul3 (d, pa, pb, oc, w)
                | `Add3 -> VAdd3 (d, pa, pb, oc, w)
                | `AddMul -> VAddMul (d, pa, pb, oc, w)
                | `SubAdd -> VSubAdd (d, pa, pb, oc, w)
                | `SubMul -> VSubMul (d, pa, pb, oc, w))
            else None)
    (* unary math call feeding one arith consumer -> math-op *)
    | Op.Math name, Op.BinF k
      when Array.length p.Op.operands = 1 && (uses_t 0 || uses_t 1) -> (
        match E.unary_fn name with
        | None -> None
        | Some g ->
            let h, other = consumer_fn k o t in
            if is_scalar_f t then
              Some
                (M1B
                   ( E.fslot c o.Op.results.(0),
                     E.fslot c p.Op.operands.(0),
                     E.fslot c other,
                     g,
                     h ))
            else if is_vec_f t then
              let d, w = E.vfslot c o.Op.results.(0) in
              let a, _ = E.vfslot c p.Op.operands.(0) in
              let oc, _ = E.vfslot c other in
              Some (VM1B (d, a, oc, w, g, h))
            else None)
    (* cmpf feeding its select -> compare-select *)
    | Op.CmpF cc, Op.Select when uses_t 0 ->
        if is_scalar_f p.Op.operands.(0) && is_scalar_f o.Op.results.(0) then
          Some
            (CmpSel
               ( E.fslot c o.Op.results.(0),
                 E.fslot c p.Op.operands.(0),
                 E.fslot c p.Op.operands.(1),
                 E.cmpf_fn cc,
                 E.fslot c o.Op.operands.(1),
                 E.fslot c o.Op.operands.(2) ))
        else if is_vec_f p.Op.operands.(0) && is_vec_f o.Op.results.(0) then
          let d, w = E.vfslot c o.Op.results.(0) in
          let a, _ = E.vfslot c p.Op.operands.(0) in
          let u, _ = E.vfslot c p.Op.operands.(1) in
          let x, _ = E.vfslot c o.Op.operands.(1) in
          let y, _ = E.vfslot c o.Op.operands.(2) in
          Some (VCmpSel (d, a, u, x, y, w, E.cmpf_fn cc))
        else None
    (* muli + addi -> integer multiply-add (state addressing) *)
    | Op.BinI Op.IMul, Op.BinI Op.IAdd
      when t.ty = Ty.I64 && (uses_t 0 || uses_t 1) ->
        let other = if uses_t 0 then o.Op.operands.(1) else o.Op.operands.(0) in
        Some
          (MadI
             ( E.islot c o.Op.results.(0),
               E.islot c p.Op.operands.(0),
               E.islot c p.Op.operands.(1),
               E.islot c other ))
    | _ -> None

(* Try to fuse the head of [ops] with its successors (adjacency patterns
   over memory ops, which cannot be sunk); [clean o] must hold for every
   consumed successor — it rejects ops already claimed by a
   producer/consumer pair (consuming a claimed op would leave its
   deferred partner un-emitted and its slot stale).  Returns the fused
   instruction and the remaining ops.

   The scalar load-op-store fusion is order-preserving (one read, then
   one write — exactly the unfused sequence), so it is sound regardless
   of aliasing.  The vector fusion is NOT: [VLos] interleaves per-lane
   reads and writes, whereas the unfused triple reads the whole vector
   before writing any lane.  If the store window overlaps the load
   window ahead of it (e.g. load at [i], store at [i+1] on the same
   buffer), lane [l]'s write lands on an index a later lane still has to
   read, and the fused result diverges.  So vector fusion asks the
   footprint oracle {!Analysis.Footprint.local_alias} and only proceeds
   when the two windows are provably identical ([Same] — writes trail
   reads lane by lane), provably disjoint, or on distinct SSA memrefs.
   [DistinctMem] relies on the kernel ABI: the driver never passes
   overlapping buffers for two distinct memref parameters (state,
   externals, params, tables and rows are separate allocations).
   [May] refuses the fusion. *)
let try_fuse (c : E.fctx) (uc : (int, int) Hashtbl.t)
    ~(defs : Value.t -> Op.op option) ~(clean : Op.op -> bool) (o1 : Op.op)
    (rest : Op.op list) : (instr * Op.op list) option =
  match (o1.Op.kind, rest) with
  (* memref.load + arith op + memref.store -> load-op-store *)
  | Op.MemLoad, o2 :: o3 :: rest3 when clean o2 && clean o3 -> (
      match (fusable_result uc o1, o2.Op.kind, o3.Op.kind) with
      | Some x, Op.BinF k, Op.MemStore
        when is_scalar_f x
             && (o2.Op.operands.(0).id = x.id || o2.Op.operands.(1).id = x.id)
             && o2.Op.operands.(0).id <> o2.Op.operands.(1).id ->
          (match fusable_result uc o2 with
          | Some y when o3.Op.operands.(0).id = y.id ->
              let h, other = consumer_fn k o2 x in
              Some
                ( Los
                    ( E.mslot c o1.Op.operands.(0),
                      E.islot c o1.Op.operands.(1),
                      E.fslot c other,
                      h,
                      E.mslot c o3.Op.operands.(1),
                      E.islot c o3.Op.operands.(2) ),
                  rest3 )
          | _ -> None)
      | _ -> None)
  (* vector.load + vector arith + vector.store -> vector load-op-store,
     gated on the alias oracle (see above) *)
  | Op.VecLoad, o2 :: o3 :: rest3 when clean o2 && clean o3 -> (
      match (fusable_result uc o1, o2.Op.kind, o3.Op.kind) with
      | Some x, Op.BinF k, Op.VecStore
        when is_vec_f x
             && (o2.Op.operands.(0).id = x.id || o2.Op.operands.(1).id = x.id)
             && o2.Op.operands.(0).id <> o2.Op.operands.(1).id ->
          (match fusable_result uc o2 with
          | Some y when o3.Op.operands.(0).id = y.id -> (
              let h, other = consumer_fn k o2 x in
              let cslot, w = E.vfslot c other in
              match
                Analysis.Footprint.local_alias ~defs
                  (o1.Op.operands.(0), o1.Op.operands.(1), w)
                  (o3.Op.operands.(1), o3.Op.operands.(2), w)
              with
              | Analysis.Footprint.May -> None
              | Analysis.Footprint.Same | Analysis.Footprint.Disjoint
              | Analysis.Footprint.DistinctMem ->
                  let m1 = E.mslot c o1.Op.operands.(0)
                  and i1 = E.islot c o1.Op.operands.(1)
                  and m2 = E.mslot c o3.Op.operands.(1)
                  and i2 = E.islot c o3.Op.operands.(2) in
                  Some (VLos (m1, i1, cslot, h, m2, i2, w), rest3))
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

(* Caching call thunk.  The closure engine's [Call] pays, per invocation
   and per operand, a slot-table lookup plus a fresh [Rt.v] box (and a
   fresh argument array) — measurable on LUT-heavy kernels that call
   [lut_interp*] once per table per cell.  Here slots are resolved at
   compile time, the argument array is allocated once, scalar boxes are
   reused while the value is unchanged (total float order, so -0./0. and
   NaNs stay distinguishable), and vector boxes own a dedicated buffer
   blitted per call.  Loop-invariant arguments (table geometry, row
   pointers) therefore box once per kernel invocation instead of once per
   cell.  Safe because no callee retains its argument array: compiled
   functions copy arguments into their register file on entry, and the
   extern ABI receives values, not storage. *)
let compile_call (c : E.fctx) (o : Op.op) (name : string) : unit -> unit =
  let env = c.E.env in
  let callee = lazy (c.E.get name) in
  let n = Array.length o.Op.operands in
  let args = Array.make n (Rt.I 0) in
  let fill =
    Array.mapi
      (fun k (v : Value.t) ->
        match E.slot c v with
        | E.SF i ->
            fun () ->
              let x = Array.unsafe_get env.E.f i in
              (match Array.unsafe_get args k with
              | Rt.F old when Float.compare old x = 0 -> ()
              | _ -> Array.unsafe_set args k (Rt.F x))
        | E.SI i ->
            fun () ->
              let x = Array.unsafe_get env.E.i i in
              (match Array.unsafe_get args k with
              | Rt.I old when old = x -> ()
              | _ -> Array.unsafe_set args k (Rt.I x))
        | E.SB i ->
            fun () ->
              let x = Array.unsafe_get env.E.b i in
              (match Array.unsafe_get args k with
              | Rt.B old when old = x -> ()
              | _ -> Array.unsafe_set args k (Rt.B x))
        | E.SM i ->
            fun () ->
              let m = Array.unsafe_get env.E.m i in
              (match Array.unsafe_get args k with
              | Rt.M old when old == m -> ()
              | _ -> Array.unsafe_set args k (Rt.M m))
        | E.SVF (i, w) ->
            let buf = Float.Array.create w in
            args.(k) <- Rt.VF buf;
            fun () -> Float.Array.blit (Array.unsafe_get env.E.vf i) 0 buf 0 w
        | E.SVI (i, w) ->
            let buf = Array.make w 0 in
            args.(k) <- Rt.VI buf;
            fun () -> Array.blit (Array.unsafe_get env.E.vi i) 0 buf 0 w
        | E.SVB (i, w) ->
            let buf = Array.make w false in
            args.(k) <- Rt.VB buf;
            fun () -> Array.blit (Array.unsafe_get env.E.vb i) 0 buf 0 w)
      o.Op.operands
  in
  let results = o.Op.results in
  if Array.length results = 0 then
    fun () ->
      for k = 0 to n - 1 do
        (Array.unsafe_get fill k) ()
      done;
      ignore (Lazy.force callee args)
  else
    fun () ->
      for k = 0 to n - 1 do
        (Array.unsafe_get fill k) ()
      done;
      let rets = Lazy.force callee args in
      Array.iteri (fun k r -> E.set_slot c r rets.(k)) results

(* ------------------------------------------------------------------ *)
(* Region compilation                                                  *)
(* ------------------------------------------------------------------ *)

let compile_func ~(get : string -> E.compiled) (fn : Func.func) :
    E.compiled =
  Obs.Tracer.with_span ("fused.compile:" ^ fn.Func.f_name) @@ fun () ->
  let c = E.make_fctx fn ~get in
  let uc = use_counts fn in
  (* value id -> defining op, for the load/store alias oracle *)
  let defs_tbl : (int, Op.op) Hashtbl.t = Hashtbl.create 256 in
  Op.iter_region
    (fun o ->
      Array.iter
        (fun (r : Value.t) -> Hashtbl.replace defs_tbl r.id o)
        o.Op.results)
    fn.Func.f_body;
  let defs (v : Value.t) = Hashtbl.find_opt defs_tbl v.id in
  let rec region ~(on_yield : Op.op -> unit -> unit) (r : Op.region) :
      unit -> unit =
    let ops = r.Op.r_ops in
    (* Producer/consumer pairing.  [user_of] maps a value id to the op of
       this region list that reads it directly (only consulted for
       single-use values, where that op is THE use).  Deferred producers
       are skipped at their own position and emitted fused into their
       consumer; [claimed] marks both ends of every pair so the adjacency
       patterns below cannot double-consume them. *)
    let user_of : (int, Op.op) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (o : Op.op) ->
        Array.iter
          (fun (v : Value.t) ->
            if not (Hashtbl.mem user_of v.id) then Hashtbl.add user_of v.id o)
          o.operands)
      ops;
    let deferred : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let pair_of : (int, Op.op) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (p : Op.op) ->
        (* an op already consuming another pair must stay in place, or the
           producer fused into it would never be emitted *)
        if
          Array.length p.Op.results = 1
          && single_use uc p.Op.results.(0)
          && not (Hashtbl.mem pair_of p.Op.o_id)
        then
          match Hashtbl.find_opt user_of p.Op.results.(0).id with
          | Some o
            when (not (Hashtbl.mem pair_of o.Op.o_id))
                 && (not (Hashtbl.mem deferred o.Op.o_id))
                 && pair_instr c p o <> None ->
              Hashtbl.add deferred p.Op.o_id ();
              Hashtbl.add pair_of o.Op.o_id p
          | _ -> ())
      ops;
    let clean (o : Op.op) =
      (not (Hashtbl.mem deferred o.Op.o_id))
      && not (Hashtbl.mem pair_of o.Op.o_id)
    in
    let rec sel (ops : Op.op list) (acc : instr list) : instr list =
      match ops with
      | [] -> List.rev acc
      | o1 :: rest when Hashtbl.mem deferred o1.Op.o_id -> sel rest acc
      | o1 :: rest -> (
          match Hashtbl.find_opt pair_of o1.Op.o_id with
          | Some p -> (
              match pair_instr c p o1 with
              | Some k -> sel rest (k :: acc)
              | None -> fail "fused: inconsistent pair selection")
          | None -> (
              match o1.Op.kind with
              | Op.Yield -> sel rest (Thunk (on_yield o1) :: acc)
              | _ -> (
                  match try_fuse c uc ~defs ~clean o1 rest with
                  | Some (instr, rest') -> sel rest' (instr :: acc)
                  | None ->
                      let instr =
                        match (instr_of c o1, o1.Op.kind) with
                        | Some k, _ -> k
                        | None, Op.Call name -> Thunk (compile_call c o1 name)
                        | None, _ ->
                            Thunk (E.compile_op c ~compile_region:region o1)
                      in
                      sel rest (instr :: acc))))
    in
    let code = Array.of_list (sel ops []) in
    exec_code code c.E.env
  in
  let body =
    region fn.Func.f_body ~on_yield:(fun _ ->
        fail "yield at function top level")
  in
  E.finish c fn ~body

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Compile a whole module with the fused engine; returns a lazy
    per-function runner lookup (same calling convention as
    {!Engine.compile_module}). *)
let compile_module ?externs (m : Func.modl) : string -> E.compiled =
  E.module_linker ?externs m (fun ~get f -> compile_func ~get f)

(** Compile and run one function of a module. *)
let run ?externs (m : Func.modl) (name : string) (args : Rt.v array) :
    Rt.v array =
  (compile_module ?externs m) name args
