/* graphblas.h — a GraphBLAS C API subset over the grb:: template core.
 *
 * The paper's primary artifact (Fig. 2) is written against the GraphBLAS
 * *C* API with SuiteSparse.  This header reproduces the slice of that API
 * the listing uses — opaque handles, GrB_Info error codes, GrB_NULL
 * defaults, predefined operators, user-defined unary operators from plain
 * function pointers — so the repository can carry a near-verbatim
 * transcription of the paper's code (sssp/delta_stepping_capi.cpp).
 *
 * Scope and simplifications (documented, deliberate):
 *  - one numeric domain: all objects store FP64 internally; BOOL results
 *    are 0.0/1.0 (SuiteSparse typecasts between domains the same way);
 *  - types are enum codes rather than GrB_Type objects;
 *  - only the operations the delta-stepping listing needs are exposed
 *    (new/free/clear/nvals/setElement/extractElement/extractTuples/build,
 *    apply, eWiseAdd, eWiseMult, vxm, reduce, descriptor set);
 *  - user unary ops are double(*)(double); state is carried via globals,
 *    exactly as the paper's delta/i_global are file-scope globals.
 */
#ifndef DSG_CAPI_GRAPHBLAS_H_
#define DSG_CAPI_GRAPHBLAS_H_

#include <stdbool.h>
#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef uint64_t GrB_Index;

/* --- Error codes (GrB_Info). ------------------------------------------- */
typedef enum {
  GrB_SUCCESS = 0,
  GrB_NO_VALUE = 1,
  GrB_UNINITIALIZED_OBJECT = 2,
  GrB_NULL_POINTER = 3,
  GrB_INVALID_VALUE = 4,
  GrB_INVALID_INDEX = 5,
  GrB_DIMENSION_MISMATCH = 6,
  GrB_OUT_OF_MEMORY = 7,
  GrB_PANIC = 8,
  /* DSG extensions (values above the GrB_* range): query lifecycle
   * outcomes of the DsgSolver_*_opts entry points.  Both are "soft"
   * codes — the distance output IS written (valid upper bounds on the
   * true distances; unreached vertices are +inf). */
  DSG_TIMEOUT = 100,  /* the control's deadline expired mid-run  */
  DSG_CANCELLED = 101 /* DsgQueryControl_cancel was observed     */
} GrB_Info;

/* --- Opaque object handles. -------------------------------------------- */
typedef struct GrB_Vector_opaque* GrB_Vector;
typedef struct GrB_Matrix_opaque* GrB_Matrix;
typedef struct GrB_Descriptor_opaque* GrB_Descriptor;
typedef struct GrB_UnaryOp_opaque* GrB_UnaryOp;
typedef struct GrB_BinaryOp_opaque* GrB_BinaryOp;
typedef struct GrB_Semiring_opaque* GrB_Semiring;

/* GrB_NULL in the C API is a NULL pointer for mask/accum/descriptor. */
#define GrB_NULL NULL

/* --- Descriptor fields and values. -------------------------------------- */
typedef enum {
  GrB_OUTP = 0,
  GrB_MASK = 1,
  GrB_INP0 = 2,
  GrB_INP1 = 3
} GrB_Desc_Field;

typedef enum {
  GrB_DEFAULT = 0,
  GrB_REPLACE = 1,
  GrB_COMP = 2,
  GrB_STRUCTURE = 3,
  GrB_TRAN = 4
} GrB_Desc_Value;

GrB_Info GrB_Descriptor_new(GrB_Descriptor* desc);
GrB_Info GrB_Descriptor_set(GrB_Descriptor desc, GrB_Desc_Field field,
                            GrB_Desc_Value value);
GrB_Info GrB_Descriptor_free(GrB_Descriptor* desc);

/* --- Predefined operators (the subset Fig. 2 uses, plus friends). ------- */
extern GrB_UnaryOp GrB_IDENTITY_FP64;
extern GrB_UnaryOp GrB_IDENTITY_BOOL;
extern GrB_UnaryOp GrB_AINV_FP64;
extern GrB_UnaryOp GrB_LNOT;

extern GrB_BinaryOp GrB_PLUS_FP64;
extern GrB_BinaryOp GrB_MINUS_FP64;
extern GrB_BinaryOp GrB_TIMES_FP64;
extern GrB_BinaryOp GrB_MIN_FP64;
extern GrB_BinaryOp GrB_MAX_FP64;
extern GrB_BinaryOp GrB_LT_FP64;
extern GrB_BinaryOp GrB_LE_FP64;
extern GrB_BinaryOp GrB_GT_FP64;
extern GrB_BinaryOp GrB_GE_FP64;
extern GrB_BinaryOp GrB_EQ_FP64;
extern GrB_BinaryOp GrB_LOR;
extern GrB_BinaryOp GrB_LAND;
extern GrB_BinaryOp GrB_FIRST_FP64;
extern GrB_BinaryOp GrB_SECOND_FP64;

/* Semirings (GxB_* naming follows SuiteSparse). */
extern GrB_Semiring GxB_MIN_PLUS_FP64;
extern GrB_Semiring GxB_PLUS_TIMES_FP64;
extern GrB_Semiring GxB_MIN_FIRST_FP64;
extern GrB_Semiring GxB_LOR_LAND_BOOL;

/* User-defined operators from plain function pointers. */
GrB_Info GrB_UnaryOp_new(GrB_UnaryOp* op, double (*fn)(double));
GrB_Info GrB_UnaryOp_free(GrB_UnaryOp* op);
GrB_Info GrB_BinaryOp_new(GrB_BinaryOp* op, double (*fn)(double, double));
GrB_Info GrB_BinaryOp_free(GrB_BinaryOp* op);

/* --- Vectors. ------------------------------------------------------------ */
GrB_Info GrB_Vector_new(GrB_Vector* v, GrB_Index n);
GrB_Info GrB_Vector_dup(GrB_Vector* copy, GrB_Vector v);
GrB_Info GrB_Vector_free(GrB_Vector* v);
GrB_Info GrB_Vector_size(GrB_Index* n, GrB_Vector v);
GrB_Info GrB_Vector_nvals(GrB_Index* nvals, GrB_Vector v);
GrB_Info GrB_Vector_clear(GrB_Vector v);
GrB_Info GrB_Vector_setElement_FP64(GrB_Vector v, double x, GrB_Index i);
/* Returns GrB_NO_VALUE (and leaves *x untouched) when no element stored. */
GrB_Info GrB_Vector_extractElement_FP64(double* x, GrB_Vector v, GrB_Index i);
GrB_Info GrB_Vector_removeElement(GrB_Vector v, GrB_Index i);
/* Arrays must have capacity for nvals entries; *count in/out. */
GrB_Info GrB_Vector_extractTuples_FP64(GrB_Index* indices, double* values,
                                       GrB_Index* count, GrB_Vector v);

/* --- Matrices. ------------------------------------------------------------ */
GrB_Info GrB_Matrix_new(GrB_Matrix* a, GrB_Index nrows, GrB_Index ncols);
GrB_Info GrB_Matrix_dup(GrB_Matrix* copy, GrB_Matrix a);
GrB_Info GrB_Matrix_free(GrB_Matrix* a);
GrB_Info GrB_Matrix_nrows(GrB_Index* nrows, GrB_Matrix a);
GrB_Info GrB_Matrix_ncols(GrB_Index* ncols, GrB_Matrix a);
GrB_Info GrB_Matrix_nvals(GrB_Index* nvals, GrB_Matrix a);
GrB_Info GrB_Matrix_clear(GrB_Matrix a);
GrB_Info GrB_Matrix_setElement_FP64(GrB_Matrix a, double x, GrB_Index row,
                                    GrB_Index col);
GrB_Info GrB_Matrix_extractElement_FP64(double* x, GrB_Matrix a,
                                        GrB_Index row, GrB_Index col);
/* Duplicates combined with `dup` (GrB_NULL means "last wins"). */
GrB_Info GrB_Matrix_build_FP64(GrB_Matrix a, const GrB_Index* rows,
                               const GrB_Index* cols, const double* values,
                               GrB_Index count, GrB_BinaryOp dup);

/* --- Operations (vector variants; mask/accum/desc may be GrB_NULL). ------ */
GrB_Info GrB_Vector_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_UnaryOp op, GrB_Vector u, GrB_Descriptor desc);
GrB_Info GrB_Matrix_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_UnaryOp op, GrB_Matrix a, GrB_Descriptor desc);
/* The Fig. 2 listing calls the matrix variant plain "GrB_apply". */
#define GrB_apply GrB_Matrix_apply

GrB_Info GrB_eWiseAdd(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                      GrB_BinaryOp op, GrB_Vector u, GrB_Vector v,
                      GrB_Descriptor desc);
GrB_Info GrB_eWiseMult(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                       GrB_BinaryOp op, GrB_Vector u, GrB_Vector v,
                       GrB_Descriptor desc);

GrB_Info GrB_vxm(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                 GrB_Semiring op, GrB_Vector u, GrB_Matrix a,
                 GrB_Descriptor desc);
GrB_Info GrB_mxv(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                 GrB_Semiring op, GrB_Matrix a, GrB_Vector u,
                 GrB_Descriptor desc);

/* Scalar reduce of a vector with a binary op treated as a monoid whose
 * identity is `identity`. */
GrB_Info GrB_Vector_reduce_FP64(double* out, GrB_BinaryOp accum,
                                GrB_BinaryOp monoid_op, double identity,
                                GrB_Vector u, GrB_Descriptor desc);

/* ========================================================================
 * v2: SSSP solver handles (plan/execute API).
 *
 * The v1 surface above mirrors the paper's per-operation C API.  The v2
 * handles expose the repository's plan/execute SSSP solver: DsgSolver_new
 * preprocesses a graph ONCE (weight validation, the delta-dependent
 * light/heavy matrix split, workspace setup) into an immutable plan;
 * DsgSolver_solve / DsgSolver_solve_batch then answer any number of
 * single- or multi-source queries against that plan without re-paying the
 * preprocessing.  This is the API to use for repeated-query workloads
 * (routing services, all-pairs sampling); a new solver per query
 * re-derives the plan every time.
 *
 * Conventions:
 *  - all functions return GrB_Info error codes; no exceptions ever cross
 *    this boundary (internal errors map to the codes below, anything
 *    unexpected to GrB_PANIC);
 *  - distances are written into caller-provided arrays of length n (the
 *    matrix dimension); unreachable vertices are reported as +infinity
 *    ((double)INFINITY) — never NaN, never a finite sentinel;
 *  - DsgSolver_new SNAPSHOTS the matrix: freeing or mutating `a`
 *    afterwards does not affect the solver;
 *  - a solver is not thread-safe; create one per thread, or serialize.
 *    EXCEPTION: DSG_SSSP_CAPI carries the paper listing's file-scope
 *    operator state (delta/i globals, kept global for fidelity), so capi
 *    solvers must be serialized PROCESS-wide — one per thread is not
 *    enough.  Every other algorithm is safe one-solver-per-thread.
 * ======================================================================== */

typedef struct DsgSolver_opaque* DsgSolver;

/* Algorithm selector; values mirror dsg::sssp::Algorithm. */
typedef enum {
  /* Let the plan's graph/Δ statistics pick the algorithm (the serving
   * layer's cost rule, sssp::auto_algorithm: Dijkstra below the
   * bucket-amortization cutoff or when Δ leaves almost no light edges;
   * otherwise buckets on high-diameter graphs, else the fused core, or
   * the async engine when no edge weight is below Δ).
   * Valid ONLY for DsgServer_new / DsgServer_new_from_file; DsgSolver_new
   * rejects it with GrB_INVALID_VALUE. */
  DSG_SSSP_AUTO = -1,
  DSG_SSSP_BUCKETS = 0,          /* canonical Meyer-Sanders buckets        */
  DSG_SSSP_GRAPHBLAS = 1,        /* unfused GraphBLAS (paper Fig. 2)       */
  DSG_SSSP_GRAPHBLAS_SELECT = 2, /* GraphBLAS with fused select filters    */
  DSG_SSSP_CAPI = 3,             /* the Fig. 2 C-API transcription         */
  DSG_SSSP_FUSED = 4,            /* fused C implementation (default)       */
  DSG_SSSP_OPENMP = 5,           /* task-parallel fused (Sec. VI-C)        */
  DSG_SSSP_BELLMAN_FORD = 6,     /* SPFA worklist baseline                 */
  DSG_SSSP_DIJKSTRA = 7,         /* binary-heap baseline                   */
  /* 8 is retired (it named rho-stepping) and rejected; do not reuse it. */
  /* The lock-free asynchronous engine.  Distances are bit-identical to
   * the deterministic variants for any thread count (the unique fp
   * min-plus fixed point), but the relaxation *schedule* — and any stats
   * derived from it — is nondeterministic. */
  DSG_SSSP_DELTA_ASYNC = 9,      /* async delta-stepping                   */
  /* Forces the enum's value range to cover all of int, so an out-of-range
   * selector arriving from C (where enums are plain ints) is a checkable
   * GrB_INVALID_VALUE instead of undefined behaviour at the parameter
   * load.  Never a valid algorithm. */
  DSG_SSSP_FORCE_INT = 0x7fffffff
} DsgSsspAlgorithm;

/* Pass as `delta` to let the plan pick the bucket width from the graph's
 * degree statistics (max_weight / avg_degree, clamped to the smallest
 * positive weight). */
#define DSG_SSSP_DELTA_AUTO 0.0

/* Builds a solver over a snapshot of `a` (square, non-negative weights).
 * `delta` > 0 fixes the bucket width; a finite delta <= 0 selects it
 * automatically.  Errors: GrB_NULL_POINTER, GrB_DIMENSION_MISMATCH
 * (non-square), GrB_INVALID_VALUE (empty graph, negative weight,
 * non-finite delta, bad algorithm). */
GrB_Info DsgSolver_new(DsgSolver* solver, GrB_Matrix a,
                       DsgSsspAlgorithm algorithm, double delta);

/* Number of vertices of the planned graph (the length of every distance
 * array below). */
GrB_Info DsgSolver_nrows(GrB_Index* n, DsgSolver solver);

/* The bucket width Δ in effect (auto-selected or as passed). */
GrB_Info DsgSolver_delta(double* delta, DsgSolver solver);

/* Stable name of the solver's algorithm (e.g. "fused"); the pointer stays
 * valid for the life of the program. */
GrB_Info DsgSolver_algorithm_name(const char** name, DsgSolver solver);

/* One query: dist must have capacity for n doubles.
 * Errors: GrB_INVALID_INDEX (source out of range), GrB_NULL_POINTER. */
GrB_Info DsgSolver_solve(DsgSolver solver, GrB_Index source, double* dist);

/* Batched queries: dist must have capacity for batch * n doubles; query k
 * writes dist[k*n .. k*n + n).  Results are element-identical to calling
 * DsgSolver_solve per source in order (duplicate sources allowed), as the
 * queries run in order; DsgServer_* below runs queries concurrently. */
GrB_Info DsgSolver_solve_batch(DsgSolver solver, const GrB_Index* sources,
                               GrB_Index batch, double* dist);

/* Frees the solver and sets *solver to NULL (NULL-safe like GrB_*_free). */
GrB_Info DsgSolver_free(DsgSolver* solver);

/* --- Query lifecycle: deadlines and cooperative cancellation. -----------
 *
 * A DsgQueryControl carries a deadline and/or a cancel flag into the
 * _opts solve entry points.  The running query polls it at its natural
 * round boundaries; on expiry/cancel it stops and the call returns
 * DSG_TIMEOUT / DSG_CANCELLED with the distances computed so far — valid
 * upper bounds on the true distances (the solver only ever lowers a
 * tentative distance), with +inf for vertices not reached yet.
 *
 * DsgQueryControl_cancel is safe to call from any thread while a solve
 * runs; set_timeout/reset must not race a running solve.  One control may
 * be reused across queries (reset clears both the deadline and the cancel
 * flag) or shared by every query of a batch. */
typedef struct DsgQueryControl_opaque* DsgQueryControl;

GrB_Info DsgQueryControl_new(DsgQueryControl* control);

/* Arms a deadline `seconds` from now.  <= 0 means "already expired": the
 * next solve returns DSG_TIMEOUT at its first poll. */
GrB_Info DsgQueryControl_set_timeout(DsgQueryControl control, double seconds);

/* Requests cooperative cancellation (thread-safe, observed within one
 * round by a running solve). */
GrB_Info DsgQueryControl_cancel(DsgQueryControl control);

/* Clears the deadline and the cancel flag, re-arming the control. */
GrB_Info DsgQueryControl_reset(DsgQueryControl control);

GrB_Info DsgQueryControl_free(DsgQueryControl* control);

/* DsgSolver_solve under a lifecycle control (NULL control = run to
 * completion, identical to DsgSolver_solve).  Returns GrB_SUCCESS,
 * DSG_TIMEOUT or DSG_CANCELLED; dist is written in all three cases. */
GrB_Info DsgSolver_solve_opts(DsgSolver solver, GrB_Index source,
                              double* dist, DsgQueryControl control);

/* Failure-isolated batch under an optional shared control: query k writes
 * dist[k*n .. k*n+n) and statuses[k].  A query that fails (e.g. out of
 * memory) gets its own error code in statuses[k] and leaves its distance
 * slice untouched; the other queries complete normally.  The call itself
 * returns GrB_SUCCESS unless its arguments are invalid — per-query
 * outcomes live in `statuses` (GrB_SUCCESS / DSG_TIMEOUT / DSG_CANCELLED
 * / an error code). */
GrB_Info DsgSolver_solve_batch_opts(DsgSolver solver,
                                    const GrB_Index* sources, GrB_Index batch,
                                    double* dist, DsgQueryControl control,
                                    GrB_Info* statuses);

/* === The serving layer: DsgServer_* (SSSP-as-a-service). ================
 *
 * A DsgServer is a fixed pool of worker threads sharing one immutable
 * graph plan, fed by a bounded submit queue, with an LRU result cache
 * keyed by (plan fingerprint, source, algorithm, Δ) in front of the
 * solves.  Submit returns a ticket; wait blocks for and redeems it (each
 * ticket exactly once).  See docs/capi.md for the full contract and
 * docs/ARCHITECTURE.md "Serving layer" for the design.
 *
 * Thread-safety: DsgServer_submit / DsgServer_wait / DsgServer_stats may
 * be called concurrently from any threads.  DsgServer_free must not race
 * them (owner drives shutdown); it drains every submitted query first. */

typedef struct DsgServer_opaque* DsgServer;

/* Cumulative counters since DsgServer_new (all monotonic except
 * cache_entries).  completed counts exact results only; interrupted
 * queries land in deadline_expired / cancelled, throwing ones in failed. */
typedef struct {
  uint64_t submitted;
  uint64_t completed;
  uint64_t deadline_expired;
  uint64_t cancelled;
  uint64_t failed;
  uint64_t cache_hits;
  uint64_t cache_misses;
  uint64_t cache_evictions;
  uint64_t cache_insert_failures;
  uint64_t cache_entries;
  uint64_t cache_capacity;
  uint64_t workers;
  uint64_t queue_capacity;
} DsgServerStats;

/* Builds a server over a snapshot of `a`.  `algorithm` may be any
 * pool-safe selector or DSG_SSSP_AUTO (cost-driven choice);
 * DSG_SSSP_CAPI is rejected (process-global operator state cannot run on
 * concurrent workers).  num_workers <= 0 selects the hardware thread
 * count; at most 1024 workers (a larger count is GrB_INVALID_VALUE, and
 * no thread starts); queue_capacity 0 is clamped to 1; cache_capacity 0
 * disables the result cache.  Errors: GrB_NULL_POINTER,
 * GrB_DIMENSION_MISMATCH, GrB_INVALID_VALUE (empty graph, negative
 * weight, non-finite delta, bad/pool-unsafe algorithm, num_workers above
 * 1024). */
GrB_Info DsgServer_new(DsgServer* server, GrB_Matrix a,
                       DsgSsspAlgorithm algorithm, double delta,
                       int32_t num_workers, GrB_Index queue_capacity,
                       GrB_Index cache_capacity);

/* Builds a server from a plan file written by DsgServer_save_plan (or
 * GraphPlan::save): the CSR, statistics and Δ load without re-validating
 * the graph, and the light/heavy split is built from the loaded CSR only
 * if the chosen algorithm reads it — the sub-second cold-start path.
 * Errors: GrB_INVALID_VALUE (missing/truncated/corrupt file, wrong
 * version or endianness) plus DsgServer_new's codes. */
GrB_Info DsgServer_new_from_file(DsgServer* server, const char* path,
                                 DsgSsspAlgorithm algorithm,
                                 int32_t num_workers,
                                 GrB_Index queue_capacity,
                                 GrB_Index cache_capacity);

/* Persists the server's plan (format above) for later
 * DsgServer_new_from_file cold starts.  Errors: GrB_NULL_POINTER,
 * GrB_INVALID_VALUE (unwritable path). */
GrB_Info DsgServer_save_plan(DsgServer server, const char* path);

/* Enqueues one query and returns its ticket in *ticket.  Blocks while the
 * bounded queue is full (backpressure); a cached source is answered inside
 * the call instead and never blocks.  `control` may be NULL; when
 * non-NULL the caller keeps it alive until DsgServer_wait returns for
 * this ticket.  Errors: GrB_NULL_POINTER, GrB_INVALID_INDEX (source out
 * of range), GrB_INVALID_VALUE (server shutting down). */
GrB_Info DsgServer_submit(DsgServer server, GrB_Index source,
                          DsgQueryControl control, uint64_t* ticket);

/* Blocks until the ticket's query finishes and redeems it: dist (capacity
 * n doubles) receives the distances and the return code is GrB_SUCCESS /
 * DSG_TIMEOUT / DSG_CANCELLED (dist written in all three cases, like
 * DsgSolver_solve_opts).  A query that THREW returns its classified error
 * code (e.g. GrB_OUT_OF_MEMORY) and leaves dist untouched.  An unknown or
 * already-redeemed ticket returns GrB_INVALID_VALUE. */
GrB_Info DsgServer_wait(DsgServer server, uint64_t ticket, double* dist);

GrB_Info DsgServer_stats(DsgServer server, DsgServerStats* stats);

/* Drains every submitted query, joins the pool, frees the server, and
 * sets *server to NULL (NULL-safe like GrB_*_free). */
GrB_Info DsgServer_free(DsgServer* server);

#ifdef __cplusplus
}  /* extern "C" */
#endif

#endif  /* DSG_CAPI_GRAPHBLAS_H_ */
