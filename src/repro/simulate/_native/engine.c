/* Native phase-2 simulation kernel.
 *
 * A machine-code port of the scalar reference engine's per-event loop
 * (src/repro/simulate/engine.py).  The Python loop is interpreter-bound:
 * every event pays dict lookups for word ownership, per-(page, session)
 * bookkeeping, and bytecode dispatch.  This file is the same loop over
 * the same data structures — open-addressing hash maps standing in for
 * the dicts — compiled with -O3, which removes the interpreter from the
 * hot path entirely.
 *
 * Bit-identity contract: every branch below mirrors a line of the
 * scalar engine, in event order, using only int64 arithmetic, so the
 * counting variables are exactly equal (not approximately — exactly;
 * the differential suite in tests/simulate/test_vector_equivalence.py
 * and tests/simulate/test_native_engine.py enforces it).  In
 * particular:
 *
 *   - install over an owned word / remove of an unowned word counts one
 *     overlap anomaly per word, and installs *overwrite* ownership;
 *   - a remove on a dead (page, session) pair counts one anomaly per
 *     pair per page size and does not decrement;
 *   - active_now is never clamped (removes decrement unconditionally)
 *     and max_active rises only on installs;
 *   - multi-word writes (end - begin > 4) hit each session at most once
 *     (the scalar `touched` set; here a per-session write-serial stamp),
 *     while single-word writes count once per membership slot,
 *     multiplicity kept;
 *   - page numbers are arithmetic shifts of int64 addresses, matching
 *     Python's floor-division `>>` (gcc/clang shift signed right
 *     arithmetically, which the build probe asserts).
 *
 * The engine is incremental: state lives in the Engine struct across
 * engine_feed() calls, bounded by the live working set (owned words,
 * touched pages, open pairs, sessions) — never by trace length.  The
 * Python wrapper (repro.simulate.native_engine) owns result assembly,
 * observation, and the feed/finish stream protocol.
 *
 * Plain C99 + stdlib only — no Python.h — so the shared object builds
 * with any C compiler and loads through ctypes; there is nothing to
 * link against and no ABI coupling beyond the function signatures
 * below (guarded by ENGINE_ABI_VERSION).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Version of the library's whole ABI: this file's entry points and
 * tracelog.c's. */
#define ENGINE_ABI_VERSION 2

#if defined(_WIN32)
#define API __declspec(dllexport)
#else
#define API __attribute__((visibility("default")))
#endif

/* Feed/flush status codes (the wrapper turns these into PipelineError). */
#define ENGINE_OK 0
#define ENGINE_ERR_OOM 1

/* ---------------------------------------------------------------------
 * Open-addressing hash map: int64 key -> one or two int64 values.
 *
 * Linear probing over a power-of-two table with a per-slot state byte
 * (EMPTY / FULL / TOMBSTONE).  Fibonacci hashing spreads sequential
 * keys (addresses, page*n_sessions+s pairs) well enough that probes
 * stay short at the 0.7 load factor.  Tombstones exist only for the
 * word-ownership map (REMOVE pops words); the other maps never delete.
 * ------------------------------------------------------------------- */

#define SLOT_EMPTY 0u
#define SLOT_FULL 1u
#define SLOT_TOMB 2u

typedef struct {
    int64_t *keys;
    int64_t *val1;
    int64_t *val2;   /* NULL when the map carries one value */
    uint8_t *state;
    uint64_t mask;   /* capacity - 1 (capacity is a power of two) */
    uint64_t used;   /* FULL slots */
    uint64_t filled; /* FULL + TOMB slots (grow trigger) */
    int has_val2;
} Map;

static inline uint64_t hash_key(int64_t key)
{
    /* Fibonacci (golden-ratio) multiplicative hash. */
    return (uint64_t)key * 0x9E3779B97F4A7C15ULL;
}

static int map_init(Map *m, uint64_t cap, int has_val2)
{
    m->keys = (int64_t *)malloc(cap * sizeof(int64_t));
    m->val1 = (int64_t *)malloc(cap * sizeof(int64_t));
    m->val2 = has_val2 ? (int64_t *)malloc(cap * sizeof(int64_t)) : NULL;
    m->state = (uint8_t *)calloc(cap, 1);
    m->mask = cap - 1;
    m->used = 0;
    m->filled = 0;
    m->has_val2 = has_val2;
    if (!m->keys || !m->val1 || !m->state || (has_val2 && !m->val2)) {
        free(m->keys);
        free(m->val1);
        free(m->val2);
        free(m->state);
        memset(m, 0, sizeof(*m));
        return ENGINE_ERR_OOM;
    }
    return ENGINE_OK;
}

static void map_destroy(Map *m)
{
    free(m->keys);
    free(m->val1);
    free(m->val2);
    free(m->state);
    memset(m, 0, sizeof(*m));
}

/* Find the slot holding `key`, or -1.  Probes run past tombstones. */
static inline int64_t map_find(const Map *m, int64_t key)
{
    uint64_t idx = hash_key(key) & m->mask;
    for (;;) {
        uint8_t st = m->state[idx];
        if (st == SLOT_EMPTY)
            return -1;
        if (st == SLOT_FULL && m->keys[idx] == key)
            return (int64_t)idx;
        idx = (idx + 1) & m->mask;
    }
}

static int map_grow(Map *m)
{
    uint64_t old_cap = m->mask + 1;
    uint64_t new_cap = old_cap * 2;
    Map fresh;
    uint64_t i;
    if (map_init(&fresh, new_cap, m->has_val2) != ENGINE_OK)
        return ENGINE_ERR_OOM;
    for (i = 0; i < old_cap; i++) {
        if (m->state[i] != SLOT_FULL)
            continue;
        uint64_t idx = hash_key(m->keys[i]) & fresh.mask;
        while (fresh.state[idx] == SLOT_FULL)
            idx = (idx + 1) & fresh.mask;
        fresh.state[idx] = SLOT_FULL;
        fresh.keys[idx] = m->keys[i];
        fresh.val1[idx] = m->val1[i];
        if (m->has_val2)
            fresh.val2[idx] = m->val2[i];
    }
    fresh.used = m->used;
    fresh.filled = m->used; /* tombstones do not survive a rehash */
    map_destroy(m);
    *m = fresh;
    return ENGINE_OK;
}

/* Insert-or-find.  On success returns the slot index and sets *existed;
 * returns -1 on allocation failure.  A reused tombstone counts as a new
 * entry.  Grows *before* probing, so returned slots stay valid until
 * the next map_put/map_grow. */
static inline int64_t map_put(Map *m, int64_t key, int *existed)
{
    if ((m->filled + 1) * 10 >= (m->mask + 1) * 7) {
        if (map_grow(m) != ENGINE_OK)
            return -1;
    }
    uint64_t idx = hash_key(key) & m->mask;
    int64_t tomb = -1;
    for (;;) {
        uint8_t st = m->state[idx];
        if (st == SLOT_EMPTY) {
            if (tomb >= 0) {
                idx = (uint64_t)tomb;
            } else {
                m->filled++;
            }
            m->state[idx] = SLOT_FULL;
            m->keys[idx] = key;
            m->used++;
            *existed = 0;
            return (int64_t)idx;
        }
        if (st == SLOT_TOMB) {
            if (tomb < 0)
                tomb = (int64_t)idx;
        } else if (m->keys[idx] == key) {
            *existed = 1;
            return (int64_t)idx;
        }
        idx = (idx + 1) & m->mask;
    }
}

/* Delete `key`; returns 1 when it was present. */
static inline int map_del(Map *m, int64_t key)
{
    int64_t slot = map_find(m, key);
    if (slot < 0)
        return 0;
    m->state[slot] = SLOT_TOMB;
    m->used--;
    return 1;
}

static inline int64_t map_get_or(const Map *m, int64_t key, int64_t fallback)
{
    int64_t slot = map_find(m, key);
    return slot < 0 ? fallback : m->val1[slot];
}

/* ---------------------------------------------------------------------
 * Engine state: the scalar engine's carried working set, in C.
 * ------------------------------------------------------------------- */

#define KIND_INSTALL 1
#define KIND_WRITE 3

typedef struct {
    int64_t n_sessions;
    int64_t n_objects;
    int64_t n_sizes;

    /* CSR membership: object id -> member session slots (multiplicity
     * and insertion order preserved, matching the scalar engine's
     * per-object lists). */
    int64_t *memb_off;  /* n_objects + 1 */
    int64_t *memb_sess; /* memb_off[n_objects] entries */
    int64_t *shifts;    /* n_sizes page shifts */

    /* Per-session tallies. */
    int64_t *installs;
    int64_t *removes;
    int64_t *hits;
    int64_t *active_now;
    int64_t *max_active;
    int64_t *stamp; /* multi-word write dedup (the scalar `touched` set) */
    int64_t write_serial;

    /* Per page size: cumulative write counters and open-pair state. */
    Map *page_writes; /* page -> writes so far */
    Map *pair_state;  /* page * n_sessions + s -> (active count, start) */
    int64_t *prot;    /* [n_sizes][n_sessions], flattened */
    int64_t *unprot;
    int64_t *raw;

    Map word_owner; /* word -> owning object id */

    int64_t total_writes;
    int64_t overlap_anomalies;
} Engine;

static int64_t *copy_i64(const int64_t *src, int64_t count)
{
    int64_t *dst = (int64_t *)malloc((size_t)(count > 0 ? count : 1) *
                                     sizeof(int64_t));
    if (dst && count > 0)
        memcpy(dst, src, (size_t)count * sizeof(int64_t));
    return dst;
}

API int64_t engine_abi_version(void)
{
    return ENGINE_ABI_VERSION;
}

API void engine_free(void *handle)
{
    Engine *e = (Engine *)handle;
    int64_t k;
    if (!e)
        return;
    free(e->memb_off);
    free(e->memb_sess);
    free(e->shifts);
    free(e->installs);
    free(e->removes);
    free(e->hits);
    free(e->active_now);
    free(e->max_active);
    free(e->stamp);
    if (e->page_writes)
        for (k = 0; k < e->n_sizes; k++)
            map_destroy(&e->page_writes[k]);
    if (e->pair_state)
        for (k = 0; k < e->n_sizes; k++)
            map_destroy(&e->pair_state[k]);
    free(e->page_writes);
    free(e->pair_state);
    free(e->prot);
    free(e->unprot);
    free(e->raw);
    map_destroy(&e->word_owner);
    free(e);
}

API void *engine_new(int64_t n_sessions, int64_t n_objects,
                     const int64_t *memb_off, const int64_t *memb_sess,
                     const int64_t *shifts, int64_t n_sizes)
{
    Engine *e = (Engine *)calloc(1, sizeof(Engine));
    int64_t k;
    if (!e)
        return NULL;
    e->n_sessions = n_sessions;
    e->n_objects = n_objects;
    e->n_sizes = n_sizes;
    e->memb_off = copy_i64(memb_off, n_objects + 1);
    e->memb_sess = copy_i64(memb_sess, memb_off[n_objects]);
    e->shifts = copy_i64(shifts, n_sizes);
    e->installs = (int64_t *)calloc((size_t)n_sessions, sizeof(int64_t));
    e->removes = (int64_t *)calloc((size_t)n_sessions, sizeof(int64_t));
    e->hits = (int64_t *)calloc((size_t)n_sessions, sizeof(int64_t));
    e->active_now = (int64_t *)calloc((size_t)n_sessions, sizeof(int64_t));
    e->max_active = (int64_t *)calloc((size_t)n_sessions, sizeof(int64_t));
    e->stamp = (int64_t *)calloc((size_t)n_sessions, sizeof(int64_t));
    e->prot = (int64_t *)calloc((size_t)(n_sizes * n_sessions), sizeof(int64_t));
    e->unprot = (int64_t *)calloc((size_t)(n_sizes * n_sessions), sizeof(int64_t));
    e->raw = (int64_t *)calloc((size_t)(n_sizes * n_sessions), sizeof(int64_t));
    e->page_writes = (Map *)calloc((size_t)n_sizes, sizeof(Map));
    e->pair_state = (Map *)calloc((size_t)n_sizes, sizeof(Map));
    if (!e->memb_off || !e->memb_sess || !e->shifts || !e->installs ||
        !e->removes || !e->hits || !e->active_now || !e->max_active ||
        !e->stamp || !e->prot || !e->unprot || !e->raw || !e->page_writes ||
        !e->pair_state)
        goto fail;
    for (k = 0; k < n_sizes; k++) {
        if (map_init(&e->page_writes[k], 1024, 0) != ENGINE_OK)
            goto fail;
        if (map_init(&e->pair_state[k], 1024, 1) != ENGINE_OK)
            goto fail;
    }
    if (map_init(&e->word_owner, 4096, 0) != ENGINE_OK)
        goto fail;
    return e;
fail:
    engine_free(e);
    return NULL;
}

API int engine_feed(void *handle, int64_t n, const int8_t *kinds,
                    const int64_t *col_a, const int64_t *col_b,
                    const int64_t *col_c)
{
    Engine *e = (Engine *)handle;
    const int64_t n_sessions = e->n_sessions;
    const int64_t n_sizes = e->n_sizes;
    int64_t i, k;

    for (i = 0; i < n; i++) {
        const int8_t kind = kinds[i];
        const int64_t a = col_a[i];
        const int64_t b = col_b[i];
        const int64_t c = col_c[i];

        if (kind == KIND_WRITE) {
            e->total_writes++;
            for (k = 0; k < n_sizes; k++) {
                int existed;
                int64_t slot = map_put(&e->page_writes[k], a >> e->shifts[k],
                                       &existed);
                if (slot < 0)
                    return ENGINE_ERR_OOM;
                e->page_writes[k].val1[slot] =
                    existed ? e->page_writes[k].val1[slot] + 1 : 1;
            }
            if (b - a <= 4) {
                /* Single-word write: hits count once per membership
                 * slot (duplicates kept, like the scalar loop). */
                int64_t slot = map_find(&e->word_owner, a);
                if (slot >= 0) {
                    const int64_t obj = e->word_owner.val1[slot];
                    int64_t m;
                    for (m = e->memb_off[obj]; m < e->memb_off[obj + 1]; m++)
                        e->hits[e->memb_sess[m]]++;
                }
            } else {
                /* Multi-word write: one hit per *session* however many
                 * member words it touches — the write-serial stamp is
                 * the scalar engine's `touched` set. */
                const int64_t serial = ++e->write_serial;
                int64_t w;
                for (w = a; w < b; w += 4) {
                    int64_t slot = map_find(&e->word_owner, w);
                    if (slot < 0)
                        continue;
                    const int64_t obj = e->word_owner.val1[slot];
                    int64_t m;
                    for (m = e->memb_off[obj]; m < e->memb_off[obj + 1]; m++) {
                        const int64_t s = e->memb_sess[m];
                        if (e->stamp[s] != serial) {
                            e->stamp[s] = serial;
                            e->hits[s]++;
                        }
                    }
                }
            }
        } else if (kind == KIND_INSTALL) {
            const int64_t obj = a;
            const int64_t m_begin = e->memb_off[obj];
            const int64_t m_end = e->memb_off[obj + 1];
            int64_t m, w;
            for (m = m_begin; m < m_end; m++) {
                const int64_t s = e->memb_sess[m];
                e->installs[s]++;
                if (++e->active_now[s] > e->max_active[s])
                    e->max_active[s] = e->active_now[s];
            }
            for (w = b; w < c; w += 4) {
                int existed;
                int64_t slot = map_put(&e->word_owner, w, &existed);
                if (slot < 0)
                    return ENGINE_ERR_OOM;
                if (existed)
                    e->overlap_anomalies++; /* install over an owned word */
                e->word_owner.val1[slot] = obj;
            }
            for (k = 0; k < n_sizes; k++) {
                const int64_t shift = e->shifts[k];
                const int64_t p_last = (c - 1) >> shift;
                int64_t page;
                int64_t *prot = e->prot + k * n_sessions;
                for (page = b >> shift; page <= p_last; page++) {
                    const int64_t writes_now =
                        map_get_or(&e->page_writes[k], page, 0);
                    const int64_t base = page * n_sessions;
                    for (m = m_begin; m < m_end; m++) {
                        const int64_t s = e->memb_sess[m];
                        int existed;
                        int64_t slot = map_put(&e->pair_state[k], base + s,
                                               &existed);
                        if (slot < 0)
                            return ENGINE_ERR_OOM;
                        if (!existed || e->pair_state[k].val1[slot] == 0) {
                            e->pair_state[k].val1[slot] = 1;
                            e->pair_state[k].val2[slot] = writes_now;
                            prot[s]++; /* 0 -> 1: page becomes protected */
                        } else {
                            e->pair_state[k].val1[slot]++;
                        }
                    }
                }
            }
        } else { /* REMOVE (any non-write, non-install kind, like Python) */
            const int64_t obj = a;
            const int64_t m_begin = e->memb_off[obj];
            const int64_t m_end = e->memb_off[obj + 1];
            int64_t m, w;
            for (m = m_begin; m < m_end; m++) {
                const int64_t s = e->memb_sess[m];
                e->removes[s]++;
                e->active_now[s]--; /* unclamped, like the scalar loop */
            }
            for (w = b; w < c; w += 4) {
                if (!map_del(&e->word_owner, w))
                    e->overlap_anomalies++; /* remove of an unowned word */
            }
            for (k = 0; k < n_sizes; k++) {
                const int64_t shift = e->shifts[k];
                const int64_t p_last = (c - 1) >> shift;
                int64_t page;
                int64_t *unprot = e->unprot + k * n_sessions;
                int64_t *raw = e->raw + k * n_sessions;
                for (page = b >> shift; page <= p_last; page++) {
                    const int64_t base = page * n_sessions;
                    for (m = m_begin; m < m_end; m++) {
                        const int64_t s = e->memb_sess[m];
                        int64_t slot = map_find(&e->pair_state[k], base + s);
                        if (slot < 0 || e->pair_state[k].val1[slot] == 0) {
                            /* remove on a dead pair: anomaly, no decrement */
                            e->overlap_anomalies++;
                            continue;
                        }
                        if (--e->pair_state[k].val1[slot] == 0) {
                            unprot[s]++; /* 1 -> 0: page unprotected */
                            raw[s] += map_get_or(&e->page_writes[k], page, 0) -
                                      e->pair_state[k].val2[slot];
                        }
                    }
                }
            }
        }
    }
    return ENGINE_OK;
}

/* EOF flush: close every window the trace left open, charging each open
 * (page, session) pair the remaining page total — the scalar engine's
 * defensive flush, order-independent because it only sums. */
API int engine_flush(void *handle)
{
    Engine *e = (Engine *)handle;
    int64_t k;
    for (k = 0; k < e->n_sizes; k++) {
        const Map *pairs = &e->pair_state[k];
        int64_t *unprot = e->unprot + k * e->n_sessions;
        int64_t *raw = e->raw + k * e->n_sessions;
        uint64_t cap = pairs->mask + 1;
        uint64_t slot;
        for (slot = 0; slot < cap; slot++) {
            if (pairs->state[slot] != SLOT_FULL || pairs->val1[slot] <= 0)
                continue;
            const int64_t key = pairs->keys[slot];
            /* Floored divmod, matching Python's divmod(key, n_sessions)
             * even for negative pages (negative addresses shifted). */
            int64_t page = key / e->n_sessions;
            int64_t s = key % e->n_sessions;
            if (s < 0) {
                s += e->n_sessions;
                page -= 1;
            }
            unprot[s]++;
            raw[s] += map_get_or(&e->page_writes[k], page, 0) -
                      pairs->val2[slot];
        }
    }
    return ENGINE_OK;
}

API void engine_read_sessions(void *handle, int64_t *installs,
                              int64_t *removes, int64_t *hits,
                              int64_t *max_active)
{
    Engine *e = (Engine *)handle;
    size_t bytes = (size_t)e->n_sessions * sizeof(int64_t);
    memcpy(installs, e->installs, bytes);
    memcpy(removes, e->removes, bytes);
    memcpy(hits, e->hits, bytes);
    memcpy(max_active, e->max_active, bytes);
}

API void engine_read_pages(void *handle, int64_t size_index, int64_t *prot,
                           int64_t *unprot, int64_t *raw)
{
    Engine *e = (Engine *)handle;
    size_t bytes = (size_t)e->n_sessions * sizeof(int64_t);
    memcpy(prot, e->prot + size_index * e->n_sessions, bytes);
    memcpy(unprot, e->unprot + size_index * e->n_sessions, bytes);
    memcpy(raw, e->raw + size_index * e->n_sessions, bytes);
}

API int64_t engine_total_writes(void *handle)
{
    return ((Engine *)handle)->total_writes;
}

API int64_t engine_overlap_anomalies(void *handle)
{
    return ((Engine *)handle)->overlap_anomalies;
}

/* Build-time probe: the page math relies on arithmetic (sign-filling)
 * right shift of signed int64, matching Python's floor-division `>>`.
 * The wrapper calls this once after loading and refuses the library if
 * the toolchain did something exotic. */
API int engine_shift_probe(void)
{
    volatile int64_t minus_one = -1;
    return (minus_one >> 5) == -1 && ((int64_t)-4096 >> 12) == -1;
}
