type kind = Sparse | Dense

type t = { kind : kind; presolve : bool }

let create ?(kind = Sparse) ?(presolve = true) () = { kind; presolve }

let default = create ()
let dense_reference = create ~kind:Dense ~presolve:false ()

let kind_of_string = function
  | "sparse" -> Some Sparse
  | "dense" -> Some Dense
  | _ -> None

let kind_to_string = function Sparse -> "sparse" | Dense -> "dense"

let basis_of_kind = function
  | Sparse -> Simplex.Sparse
  | Dense -> Simplex.Dense

let solve ?max_iters t (p : Problem.t) =
  let basis = basis_of_kind t.kind in
  if not t.presolve then Simplex.solve ?max_iters ~basis p
  else
    match Presolve.run p with
    | Presolve.Proved_infeasible _ ->
        {
          Simplex.status = Simplex.Infeasible;
          x = Array.make (Problem.nvars p) 0.;
          obj = 0.;
          duals = Array.make (Problem.nrows p) 0.;
          iterations = 0;
        }
    | Presolve.Feasible map ->
        let r = Simplex.solve ?max_iters ~basis map.reduced in
        (* Lift the kernel's iterate back to the original space for every
           status: restore is status-agnostic, and a non-Optimal result
           (notably Iter_limit) must carry the real partial solution and
           its real objective, not a fabricated zero vector — callers
           like {!Branch_bound} would mistake all-zeros for an integral
           point and 0 for a bound. *)
        let x = Presolve.restore_x map r.Simplex.x in
        let duals = Presolve.restore_duals map r.Simplex.duals in
        (* Recompute c'x in the original space: the reduced problem
           carries fixed-variable contributions as an offset, which
           the kernel's [obj] excludes. *)
        let obj = ref 0. in
        Array.iteri
          (fun v xv -> obj := !obj +. ((Problem.var p v).Problem.obj *. xv))
          x;
        { r with Simplex.x; duals; obj = !obj }
