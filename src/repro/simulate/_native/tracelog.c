/* Phase-1 tracer log expansion.
 *
 * The phase-1 tracer (src/repro/trace/tracer.py) records one int64 per
 * hook while the simulated program runs:
 *
 *   - a store appends its address (>= 0);
 *   - a function entry or exit appends ~(frame_base << (func_bits + 2)
 *     | index << 2 | tag), tag 0 on entry and 1 on exit;
 *   - a heap or static event appends ~(side << 2 | 2), `side` indexing a
 *     (kind, a, b, c) row.
 *
 * tracelog_expand() turns one drain of that log into events of the
 * trace's four columns (int8 kinds, int32 col_a/col_b/col_c) in a
 * single call, written in place after the events the columns already
 * hold: a store becomes one WRITE, a frame record one INSTALL (entry)
 * or REMOVE (exit) per variable of its function's frame plan, a side
 * record its one event.  It is the same mapping as the NumPy
 * Tracer._expand, which stays the no-compiler path and the test oracle.
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
#define TRACELOG_RANGE 3   /* a value outside int32; the drain is void */

#define KIND_INSTALL 1
#define KIND_WRITE 3

/* Whether an int64 value fits the int32 trace columns. */
#define FITS(v) ((v) >= INT32_MIN && (v) <= INT32_MAX)

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

/* Expand records[0..n_records) into kinds/col_a/col_b/col_c from
 * position `offset` on.
 *
 * plan_start/plan_len (n_funcs each) locate each function's run in the
 * plan_off/plan_size/plan_obj arrays; side holds n_side rows of (kind,
 * a, b, c).  The columns hold `capacity` events.  On TRACELOG_OK,
 * out[0] is the number of events written and out[1..3] the INSTALL,
 * REMOVE and WRITE counts; on TRACELOG_SHORT, out[0] is the number of
 * events the drain needs past `offset`; on TRACELOG_BAD and
 * TRACELOG_RANGE, out[0] is the index of the offending record.  A
 * TRACELOG_RANGE drain may have written some events past `offset`;
 * they are not part of the trace.
 */
API int tracelog_expand(const int64_t *records, int64_t n_records,
                        int64_t func_bits,
                        const int64_t *plan_start, const int64_t *plan_len,
                        const int64_t *plan_off, const int64_t *plan_size,
                        const int64_t *plan_obj, int64_t n_funcs,
                        const int64_t *side, int64_t n_side,
                        int8_t *kinds, int32_t *col_a, int32_t *col_b,
                        int32_t *col_c, int64_t offset, int64_t capacity,
                        int64_t *out)
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
    if (total > capacity - offset) {
        out[0] = total;
        return TRACELOG_SHORT;
    }

    /* Pass 2: expand, checking that every value fits in int32. */
    total = offset;
    for (i = 0; i < n_records; i++) {
        int64_t r = records[i];
        if (r >= 0) {
            if (r > (int64_t)INT32_MAX - 4)  /* r + 4, without overflow */
                goto out_of_range;
            kinds[total] = KIND_WRITE;
            col_a[total] = (int32_t)r;
            col_b[total] = (int32_t)(r + 4);
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
                    int64_t end = begin + plan_size[j];
                    if (!FITS(plan_obj[j]) || !FITS(begin) || !FITS(end))
                        goto out_of_range;
                    kinds[total] = kind;
                    col_a[total] = (int32_t)plan_obj[j];
                    col_b[total] = (int32_t)begin;
                    col_c[total] = (int32_t)end;
                    total++;
                }
            } else {
                const int64_t *row = side + 4 * payload;
                if (!FITS(row[1]) || !FITS(row[2]) || !FITS(row[3]))
                    goto out_of_range;
                kinds[total] = (int8_t)row[0];
                col_a[total] = (int32_t)row[1];
                col_b[total] = (int32_t)row[2];
                col_c[total] = (int32_t)row[3];
                per_kind[row[0]]++;
                total++;
            }
        }
    }
    out[0] = total - offset;
    out[1] = per_kind[1];
    out[2] = per_kind[2];
    out[3] = per_kind[3];
    return TRACELOG_OK;

out_of_range:
    out[0] = i;
    return TRACELOG_RANGE;
}
