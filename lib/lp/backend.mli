(** The LP-backend seam: one dispatch point for every component that
    needs a single LP solved (the CoPhy solver's feasibility probe, the
    decomposition's z subproblem, the CLI front-ends).  Branch-and-bound
    node LPs do not go through it: they always run the sparse
    {!Simplex.session} kernel.

    A backend is a kernel choice ({!Sparse} — Markowitz LU + eta
    updates — or the historical {!Dense} reference) plus a presolve
    switch.  [default] is the production configuration (sparse kernel,
    presolve on); [dense_reference] is the historical path kept for A/B
    comparison and regression hunting. *)

type kind = Sparse | Dense

type t = { kind : kind; presolve : bool }

val default : t  (** sparse kernel, presolve on *)

val dense_reference : t  (** dense kernel, presolve off *)

val create : ?kind:kind -> ?presolve:bool -> unit -> t

val kind_of_string : string -> kind option
val kind_to_string : kind -> string

(** Solve the LP relaxation of [p]: presolve (when enabled), run the
    selected kernel, and lift the solution, objective, and duals back to
    [p]'s variable/row space.  Never mutates [p].

    With presolve on, binary/integer reductions preserve
    integer-feasible solutions; the reported objective can exceed the
    pure LP-relaxation optimum (it is still a valid bound for the BIP,
    which is what branch-and-bound consumes).  Non-[Optimal] statuses
    carry the kernel's last iterate lifted back to [p]'s space, with the
    objective recomputed from it — an [Iter_limit] iterate is a genuine
    partial solution, not a certificate.  Duals of rows removed by
    presolve are reported as 0, which in degenerate cases is not a valid
    dual (see {!Presolve.restore_duals}); disable presolve when exact
    duals are required. *)
val solve : ?max_iters:int -> t -> Problem.t -> Simplex.result
