/* Phase-1 tracer log expansion.
 *
 * The phase-1 tracer (src/repro/trace/tracer.py) records one int64 per
 * hook while the simulated program runs:
 *
 *   - a store appends its address (>= 0);
 *   - a function entry or exit appends ~(frame_base << (func_bits + 2)
 *     | index << 2 | tag), tag 0 on entry and 1 on exit;
 *   - a heap or static event appends ~(side << 2 | 2), `side` indexing a
 *     (kind, a, b, c) row and an ends-a-hook flag.
 *
 * tracelog_expand() turns one drain of that log into the trace's four
 * event columns in a single call: a store becomes one WRITE, a frame
 * record one INSTALL (entry) or REMOVE (exit) per variable of its
 * function's frame plan, a side record its one event.  It is the same
 * mapping as the NumPy Tracer._expand, which stays the no-compiler path
 * and the test oracle.  Besides the columns it writes, per record, the
 * running event count after it (`ends`) and whether a chunk may end
 * after it (`eligible`: every record but a side record whose hook goes
 * on), which is what ChunkingTracer cuts chunks by.
 *
 * Built into the same shared object as engine.c (one compiler call, one
 * cache entry, one ABI version).
 */

#include <stdint.h>

#if defined(_WIN32)
#define API __declspec(dllexport)
#else
#define API __attribute__((visibility("default")))
#endif

#define TRACELOG_OK 0
#define TRACELOG_SHORT 1   /* output capacity too small; nothing written */
#define TRACELOG_BAD 2     /* a malformed record; nothing written */

#define KIND_INSTALL 1
#define KIND_WRITE 3

/* Events of record `r`, or -1 if it is malformed. */
static inline int64_t record_events(int64_t r, int64_t func_mask,
                                    const int64_t *plan_len, int64_t n_funcs,
                                    const int64_t *side, int64_t n_side)
{
    int64_t word, tag, payload, kind;
    if (r >= 0)
        return 1;
    word = ~r;
    tag = word & 3;
    payload = word >> 2;
    if (tag < 2) {
        int64_t func = payload & func_mask;
        return func < n_funcs ? plan_len[func] : -1;
    }
    if (tag == 3 || payload >= n_side)
        return -1;
    kind = side[4 * payload];
    return kind >= KIND_INSTALL && kind <= KIND_WRITE ? 1 : -1;
}

/* Expand records[0..n_records) into kinds/col_a/col_b/col_c.
 *
 * plan_start/plan_len (n_funcs each) locate each function's run in the
 * plan_off/plan_size/plan_obj arrays; side holds n_side rows of (kind,
 * a, b, c) and side_ends their flags.  ends and eligible need room for
 * n_records items.  On TRACELOG_OK, out[0] is the number of events
 * written and out[1..3] the INSTALL, REMOVE and WRITE counts; on
 * TRACELOG_SHORT, out[0] is the capacity the drain needs; on
 * TRACELOG_BAD, out[0] is the index of the malformed record.
 */
API int tracelog_expand(const int64_t *records, int64_t n_records,
                        int64_t func_bits,
                        const int64_t *plan_start, const int64_t *plan_len,
                        const int64_t *plan_off, const int64_t *plan_size,
                        const int64_t *plan_obj, int64_t n_funcs,
                        const int64_t *side, const int8_t *side_ends,
                        int64_t n_side,
                        int8_t *kinds, int64_t *col_a, int64_t *col_b,
                        int64_t *col_c, int64_t capacity,
                        int64_t *ends, int8_t *eligible, int64_t *out)
{
    const int64_t func_mask = ((int64_t)1 << func_bits) - 1;
    int64_t i, total = 0, per_kind[4] = {0, 0, 0, 0};

    /* Pass 1: validate and size. */
    for (i = 0; i < n_records; i++) {
        int64_t count = record_events(records[i], func_mask, plan_len,
                                      n_funcs, side, n_side);
        if (count < 0) {
            out[0] = i;
            return TRACELOG_BAD;
        }
        total += count;
    }
    if (total > capacity) {
        out[0] = total;
        return TRACELOG_SHORT;
    }

    /* Pass 2: expand. */
    total = 0;
    for (i = 0; i < n_records; i++) {
        int64_t r = records[i];
        int8_t ends_hook = 1;
        if (r >= 0) {
            kinds[total] = KIND_WRITE;
            col_a[total] = r;
            col_b[total] = r + 4;
            col_c[total] = 0;
            per_kind[KIND_WRITE]++;
            total++;
        } else {
            int64_t word = ~r;
            int64_t tag = word & 3;
            int64_t payload = word >> 2;
            if (tag < 2) {
                int64_t func = payload & func_mask;
                int64_t base = payload >> func_bits;
                int64_t j = plan_start[func];
                int64_t stop = j + plan_len[func];
                int8_t kind = (int8_t)(KIND_INSTALL + tag);
                per_kind[kind] += stop - j;
                for (; j < stop; j++) {
                    int64_t begin = base + plan_off[j];
                    kinds[total] = kind;
                    col_a[total] = plan_obj[j];
                    col_b[total] = begin;
                    col_c[total] = begin + plan_size[j];
                    total++;
                }
            } else {
                const int64_t *row = side + 4 * payload;
                kinds[total] = (int8_t)row[0];
                col_a[total] = row[1];
                col_b[total] = row[2];
                col_c[total] = row[3];
                per_kind[row[0]]++;
                ends_hook = side_ends[payload] ? 1 : 0;
                total++;
            }
        }
        ends[i] = total;
        eligible[i] = ends_hook;
    }
    out[0] = total;
    out[1] = per_kind[1];
    out[2] = per_kind[2];
    out[3] = per_kind[3];
    return TRACELOG_OK;
}
