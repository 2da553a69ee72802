#include "graph/graphfile.hh"

#include <bit>
#include <cstring>
#include <fstream>
#include <limits>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

// Section arrays are dumped/mapped as raw u32s; the checksums make a
// byte-swapped file fail loudly rather than load garbage.
static_assert(std::endian::native == std::endian::little,
              "dalorex graph files are little-endian");

namespace dalorex
{
namespace
{

constexpr char kMagic[8] = {'D', 'L', 'R', 'X', 'C', 'S', 'R', '\0'};
constexpr std::size_t kHeaderBytes = 88;
constexpr std::uint32_t kFlagWeighted = 1u << 0;

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

/** Pad section offsets so u32 array views are always aligned. */
std::size_t
align8(std::size_t offset)
{
    return (offset + 7) & ~std::size_t(7);
}

void
put32(std::uint8_t* base, std::size_t offset, std::uint32_t v)
{
    std::memcpy(base + offset, &v, sizeof v);
}

void
put64(std::uint8_t* base, std::size_t offset, std::uint64_t v)
{
    std::memcpy(base + offset, &v, sizeof v);
}

std::uint32_t
get32(const std::uint8_t* base, std::size_t offset)
{
    std::uint32_t v = 0;
    std::memcpy(&v, base + offset, sizeof v);
    return v;
}

std::uint64_t
get64(const std::uint8_t* base, std::size_t offset)
{
    std::uint64_t v = 0;
    std::memcpy(&v, base + offset, sizeof v);
    return v;
}

GraphFileResult
failLoad(const std::string& message)
{
    GraphFileResult result;
    result.ok = false;
    result.error = message;
    return result;
}

GraphFileInfoResult
failInspect(const std::string& message)
{
    GraphFileInfoResult result;
    result.ok = false;
    result.error = message;
    return result;
}

/**
 * A read-only mmap'd view of the whole file (the page cache then
 * backs repeated loads of a hot graph).
 */
class FileView
{
  public:
    ~FileView()
    {
        if (mapped_ != nullptr)
            ::munmap(mapped_, size_);
    }

    FileView(const FileView&) = delete;
    FileView& operator=(const FileView&) = delete;
    FileView() = default;

    /** Open and map `path`; false with `error` on failure. */
    bool
    open(const std::string& path, std::string& error)
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) {
            error = "cannot open graph file: " + path;
            return false;
        }
        struct stat st;
        if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
            ::close(fd);
            error = "not a regular file: " + path;
            return false;
        }
        size_ = static_cast<std::size_t>(st.st_size);
        if (size_ > 0) {
            void* map =
                ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
            if (map == MAP_FAILED) {
                ::close(fd);
                error = "cannot mmap graph file: " + path;
                return false;
            }
            mapped_ = map;
        }
        ::close(fd);
        return true;
    }

    const std::uint8_t*
    data() const
    {
        return static_cast<const std::uint8_t*>(mapped_);
    }

    std::size_t size() const { return size_; }

  private:
    std::size_t size_ = 0;
    void* mapped_ = nullptr;
};

/**
 * Parse and fully validate a file view. On success fills `header`
 * and the section pointers (null weights when unweighted).
 */
bool
parseAndValidate(const std::uint8_t* data, std::size_t size,
                 const std::string& path, GraphFileHeader& header,
                 const std::uint8_t*& row_ptr_bytes,
                 const std::uint8_t*& col_idx_bytes,
                 const std::uint8_t*& weight_bytes, std::string& error)
{
    if (size < kHeaderBytes) {
        error = "truncated graph file (" + std::to_string(size) +
                " bytes, header needs " +
                std::to_string(kHeaderBytes) + "): " + path;
        return false;
    }
    if (std::memcmp(data, kMagic, sizeof kMagic) != 0) {
        error = "not a dalorex graph file (bad magic): " + path;
        return false;
    }
    header.version = get32(data, 8);
    if (header.version != graphFileVersion) {
        error = "unsupported graph file version " +
                std::to_string(header.version) + " (this build reads " +
                std::to_string(graphFileVersion) + "): " + path;
        return false;
    }
    if (get64(data, 80) != hashBytes(data, 80)) {
        error = "header checksum mismatch (corrupt file): " + path;
        return false;
    }

    const std::uint32_t flags = get32(data, 12);
    header.weighted = (flags & kFlagWeighted) != 0;
    header.numVertices = get64(data, 16);
    header.numEdges = get64(data, 24);
    const std::uint64_t name_bytes = get64(data, 32);
    const std::uint64_t prov_bytes = get64(data, 40);
    header.metaHash = get64(data, 48);
    header.rowPtrHash = get64(data, 56);
    header.colIdxHash = get64(data, 64);
    header.weightsHash = get64(data, 72);
    header.fileBytes = size;

    // VertexId/EdgeId are 32-bit (the paper's 32-bit machine): refuse
    // counts the in-memory representation cannot index.
    if (header.numVertices >=
            std::numeric_limits<VertexId>::max() ||
        header.numEdges > std::numeric_limits<EdgeId>::max()) {
        error = "graph exceeds the 32-bit vertex/edge id domain: " +
                path;
        return false;
    }
    if (name_bytes > size || prov_bytes > size) {
        error = "corrupt section lengths in header: " + path;
        return false;
    }

    const std::size_t meta_off = kHeaderBytes;
    const std::size_t row_off = align8(
        meta_off + static_cast<std::size_t>(name_bytes + prov_bytes));
    const std::size_t row_bytes =
        (static_cast<std::size_t>(header.numVertices) + 1) *
        sizeof(EdgeId);
    const std::size_t col_bytes =
        static_cast<std::size_t>(header.numEdges) * sizeof(VertexId);
    const std::size_t weight_sec_bytes =
        header.weighted
            ? static_cast<std::size_t>(header.numEdges) * sizeof(Word)
            : 0;
    const std::size_t expected =
        row_off + row_bytes + col_bytes + weight_sec_bytes;
    if (size != expected) {
        error = "truncated graph file (" + std::to_string(size) +
                " bytes, sections need " + std::to_string(expected) +
                "): " + path;
        return false;
    }

    if (hashBytes(data + meta_off,
                  static_cast<std::size_t>(name_bytes + prov_bytes)) !=
        header.metaHash) {
        error = "checksum mismatch in name/provenance section: " +
                path;
        return false;
    }
    row_ptr_bytes = data + row_off;
    if (hashBytes(row_ptr_bytes, row_bytes) != header.rowPtrHash) {
        error = "checksum mismatch in rowPtr section: " + path;
        return false;
    }
    col_idx_bytes = row_ptr_bytes + row_bytes;
    if (hashBytes(col_idx_bytes, col_bytes) != header.colIdxHash) {
        error = "checksum mismatch in colIdx section: " + path;
        return false;
    }
    weight_bytes = nullptr;
    if (header.weighted) {
        weight_bytes = col_idx_bytes + col_bytes;
        if (hashBytes(weight_bytes, weight_sec_bytes) !=
            header.weightsHash) {
            error = "checksum mismatch in weights section: " + path;
            return false;
        }
    }

    header.name.assign(
        reinterpret_cast<const char*>(data + meta_off),
        static_cast<std::size_t>(name_bytes));
    header.provenance.assign(
        reinterpret_cast<const char*>(data + meta_off + name_bytes),
        static_cast<std::size_t>(prov_bytes));

    // Structural invariants: checksums prove the bytes match what the
    // converter wrote; this proves what it wrote is a CSR. Elements
    // are read with get32 (memcpy), not an array view: the image may
    // sit at any alignment (see loadGraphFileBytes) and a misaligned
    // u32 load would be UB even where the hardware tolerates it.
    const auto num_vertices =
        static_cast<VertexId>(header.numVertices);
    const auto num_edges = static_cast<EdgeId>(header.numEdges);
    const auto row_at = [row_ptr_bytes](VertexId v) {
        return get32(row_ptr_bytes,
                     static_cast<std::size_t>(v) * sizeof(EdgeId));
    };
    if (row_at(0) != 0 || row_at(num_vertices) != num_edges) {
        error = "corrupt CSR structure (rowPtr bounds): " + path;
        return false;
    }
    for (VertexId v = 0; v < num_vertices; ++v) {
        if (row_at(v) > row_at(v + 1)) {
            error = "corrupt CSR structure (rowPtr not monotone at "
                    "vertex " + std::to_string(v) + "): " + path;
            return false;
        }
    }
    for (EdgeId e = 0; e < num_edges; ++e) {
        const VertexId dest = get32(
            col_idx_bytes,
            static_cast<std::size_t>(e) * sizeof(VertexId));
        if (dest >= num_vertices) {
            error = "corrupt CSR structure (colIdx out of range at "
                    "edge " + std::to_string(e) + "): " + path;
            return false;
        }
    }
    return true;
}

/** Validate `data` and build the result (alignment-agnostic). */
GraphFileResult
loadFromImage(const std::uint8_t* data, std::size_t size,
              const std::string& label)
{
    GraphFileHeader header;
    const std::uint8_t* row_ptr_bytes = nullptr;
    const std::uint8_t* col_idx_bytes = nullptr;
    const std::uint8_t* weight_bytes = nullptr;
    std::string error;
    if (!parseAndValidate(data, size, label, header, row_ptr_bytes,
                          col_idx_bytes, weight_bytes, error))
        return failLoad(error);

    GraphFileResult result;
    Dataset& ds = result.dataset;
    ds.name = header.name;
    ds.provenance = header.provenance;
    Csr& g = ds.graph;
    g.numVertices = static_cast<VertexId>(header.numVertices);
    g.numEdges = static_cast<EdgeId>(header.numEdges);
    // memcpy into sized vectors instead of assign() from typed
    // pointers: the sections may be misaligned within `data`.
    g.rowPtr.resize(static_cast<std::size_t>(g.numVertices) + 1);
    std::memcpy(g.rowPtr.data(), row_ptr_bytes,
                g.rowPtr.size() * sizeof(EdgeId));
    g.colIdx.resize(g.numEdges);
    std::memcpy(g.colIdx.data(), col_idx_bytes,
                static_cast<std::size_t>(g.numEdges) *
                    sizeof(VertexId));
    if (header.weighted) {
        g.weights.resize(g.numEdges);
        std::memcpy(g.weights.data(), weight_bytes,
                    static_cast<std::size_t>(g.numEdges) *
                        sizeof(Word));
    }
    return result;
}

} // namespace

std::uint64_t
hashBytes(const void* data, std::size_t size)
{
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    std::uint64_t h = kPrime5 ^ (size * kPrime1);
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t lane = 0;
        std::memcpy(&lane, bytes + i, 8);
        lane *= kPrime2;
        lane = std::rotl(lane, 31);
        lane *= kPrime3;
        h ^= lane;
        h = std::rotl(h, 27) * kPrime1 + kPrime4;
    }
    for (; i < size; ++i) {
        h ^= bytes[i] * kPrime5;
        h = std::rotl(h, 11) * kPrime1;
    }
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

bool
saveGraphFile(const std::string& path, const Dataset& ds,
              std::string& error)
{
    const Csr& g = ds.graph;
    const std::size_t row_bytes =
        (static_cast<std::size_t>(g.numVertices) + 1) * sizeof(EdgeId);
    const std::size_t col_bytes =
        static_cast<std::size_t>(g.numEdges) * sizeof(VertexId);
    const std::size_t weight_sec_bytes =
        g.weighted() ? static_cast<std::size_t>(g.numEdges) *
                           sizeof(Word)
                     : 0;

    std::uint8_t header[kHeaderBytes] = {};
    std::memcpy(header, kMagic, sizeof kMagic);
    put32(header, 8, graphFileVersion);
    put32(header, 12, g.weighted() ? kFlagWeighted : 0);
    put64(header, 16, g.numVertices);
    put64(header, 24, g.numEdges);
    put64(header, 32, ds.name.size());
    put64(header, 40, ds.provenance.size());
    const std::string meta = ds.name + ds.provenance;
    put64(header, 48, hashBytes(meta.data(), meta.size()));
    put64(header, 56, hashBytes(g.rowPtr.data(), row_bytes));
    put64(header, 64, hashBytes(g.colIdx.data(), col_bytes));
    put64(header, 72,
          g.weighted() ? hashBytes(g.weights.data(), weight_sec_bytes)
                       : 0);
    put64(header, 80, hashBytes(header, 80));

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        error = "cannot open output file: " + path;
        return false;
    }
    out.write(reinterpret_cast<const char*>(header), kHeaderBytes);
    out.write(meta.data(),
              static_cast<std::streamsize>(meta.size()));
    const std::size_t pad =
        align8(kHeaderBytes + meta.size()) -
        (kHeaderBytes + meta.size());
    const char zeros[8] = {};
    out.write(zeros, static_cast<std::streamsize>(pad));
    out.write(reinterpret_cast<const char*>(g.rowPtr.data()),
              static_cast<std::streamsize>(row_bytes));
    out.write(reinterpret_cast<const char*>(g.colIdx.data()),
              static_cast<std::streamsize>(col_bytes));
    if (g.weighted())
        out.write(reinterpret_cast<const char*>(g.weights.data()),
                  static_cast<std::streamsize>(weight_sec_bytes));
    out.flush();
    if (!out) {
        error = "error writing graph file: " + path;
        return false;
    }
    return true;
}

GraphFileResult
loadGraphFile(const std::string& path)
{
    FileView view;
    std::string error;
    if (!view.open(path, error))
        return failLoad(error);
    return loadFromImage(view.data(), view.size(), path);
}

GraphFileResult
loadGraphFileBytes(const std::uint8_t* data, std::size_t size,
                   const std::string& label)
{
    if (data == nullptr && size != 0)
        return failLoad("null graph image: " + label);
    return loadFromImage(data, size, label);
}

GraphFileInfoResult
inspectGraphFile(const std::string& path)
{
    FileView view;
    std::string error;
    if (!view.open(path, error))
        return failInspect(error);

    GraphFileInfoResult result;
    const std::uint8_t* row_ptr_bytes = nullptr;
    const std::uint8_t* col_idx_bytes = nullptr;
    const std::uint8_t* weight_bytes = nullptr;
    if (!parseAndValidate(view.data(), view.size(), path,
                          result.header, row_ptr_bytes, col_idx_bytes,
                          weight_bytes, error))
        return failInspect(error);
    return result;
}

} // namespace dalorex
