(* 1-D tissue strand: the two-stage simulation end to end.

   A 100-cell cable of Drouhard-Roberge myocytes run by the monodomain
   engine (lib/tissue).  Each time step runs (1) the compute stage — the
   generated vector kernel producing Iion per cell — and (2) the solver
   stage — the semi-implicit diffusion solve (tridiagonal Thomas
   algorithm).  An S1 stimulus at the left end launches a propagating
   action potential; the example reports activation times along the
   fibre and the conduction velocity, and cross-checks the direct
   tridiagonal solve against conjugate gradients.

   Run with: dune exec examples/tissue_strand.exe *)

let () =
  let n = 100 in
  let dt = 0.01 (* ms *) in
  let geom = Tissue.Geometry.cable ~n ~dx:0.01 (* cm *) in
  let entry = Models.Registry.find_exn "DrouhardRoberge" in
  let model = Models.Registry.model entry in
  let gen = Codegen.Cache.generate (Codegen.Config.mlir ~width:8) model in
  (* cross-check the cable operator once: direct vs CG on a smooth rhs *)
  let op = Tissue.Diffusion.assemble geom ~sigma:0.001 ~dt in
  let rhs = Float.Array.init n (fun i -> Float.sin (float_of_int i /. 7.0)) in
  let x_direct = Tissue.Diffusion.solve op rhs in
  let x_cg, stats = Solver.Cg.solve (Tissue.Diffusion.matrix op) rhs in
  let max_diff = ref 0.0 in
  for i = 0 to n - 1 do
    max_diff :=
      Float.max !max_diff
        (Float.abs (Float.Array.get x_direct i -. Float.Array.get x_cg i))
  done;
  Fmt.pr "solver cross-check: Thomas vs CG max diff %.2e (%d CG iters)@.@."
    !max_diff stats.Solver.Cg.iterations;

  (* 80 uA/uF on the first 5 cells from 1 to 3 ms *)
  let sim =
    Tissue.Monodomain.create gen ~geom ~dt ~protocol:(Tissue.Protocol.s1 geom)
  in
  ignore (Tissue.Monodomain.run sim ~steps:6_000 (* 60 ms *));
  let act = Tissue.Monodomain.activation sim in
  Fmt.pr "activation times along the strand (ms):@.";
  List.iter
    (fun i ->
      let t = Tissue.Activation.first_time act i in
      Fmt.pr "  cell %3d: %s@." i
        (if Float.is_finite t then Printf.sprintf "%.2f" t else "not activated"))
    [ 0; 20; 40; 60; 80; 99 ];
  let a, b = Tissue.Monodomain.probes sim in
  match Tissue.Monodomain.conduction_velocity sim with
  | Some cv ->
      Fmt.pr "@.conduction velocity between cells %d and %d: %.3f cm/ms (%.1f cm/s)@."
        a b cv (cv *. 1000.0)
  | None -> Fmt.pr "@.wave did not propagate between cells %d and %d@." a b
